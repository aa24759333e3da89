(** Device Ejects.

    §4: "Output devices such as terminals and printers would provide a
    potentially infinite supply of Read invocations.  Connecting a
    terminal to a filter Eject would be rather like starting a pump."
    Devices here follow that model: display devices are pumping sinks
    (with a configurable consumption rate, so device speed paces the
    whole pipeline); the date source and counter source are passive
    producers; the printer server is asked to {e read from} whatever it
    should print.

    Handles bundle the Eject's UID with accessors for what the device
    has rendered — the accessors are simulation-side instrumentation,
    not operations other Ejects can invoke. *)

module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Value = Eden_kernel.Value
module T = Eden_transput

type display = {
  uid : Uid.t;
  lines : unit -> string list;  (** What has been rendered so far. *)
  done_ : unit Eden_sched.Ivar.t;  (** Filled at end of stream. *)
}

(** {1 Sinks} *)

val terminal_ro : Kernel.t -> ?rate:float -> upstream:Uid.t -> unit -> display
(** A pumping terminal: actively reads {!T.Channel.output} of
    [upstream], one item per Transfer, rendering one line per [rate]
    (default 0, i.e. infinitely fast) of virtual time.  Start with
    {!Kernel.poke}. *)

val terminal_wo : Kernel.t -> ?rate:float -> unit -> display
(** A passive terminal for write-only pipelines: renders what is
    deposited on {!T.Channel.output}, buffering one item. *)

val null_sink_ro : Kernel.t -> upstream:Uid.t -> unit -> display
(** "The null sink is an Eject which reads indiscriminately and ignores
    the data it is given" (§4): it pumps [upstream]'s
    {!T.Channel.output}, one item per Transfer.  [lines] stays empty;
    [done_] still fires. *)

(** {1 Sources} *)

val date_source : Kernel.t -> unit -> Uid.t
(** "An Eject which responds to a read invocation by returning the
    current date and time is a source" (§4).  Infinite; each item is a
    [Value.Str] timestamp in virtual time. *)

val counter_source : Kernel.t -> ?prefix:string -> limit:int -> unit -> Uid.t
(** Lines ["<prefix>1" .. "<prefix>limit"], then end of stream. *)

val random_source : Kernel.t -> ?seed:int64 -> limit:int -> unit -> Uid.t
(** Deterministic pseudo-random text, [limit] lines of four words —
    workload filler for benches and tests.  Same seed, same text. *)

val text_source :
  Kernel.t -> ?node:Eden_net.Net.node_id -> ?name:string -> ?capacity:int -> string list -> Uid.t
(** A fixed document, one line per item. *)

(** {1 Printer server} *)

type printer = {
  puid : Uid.t;
  paper : unit -> string list;  (** Everything printed, in order. *)
  jobs_completed : unit -> int;
}

val printer : Kernel.t -> ?node:Eden_net.Net.node_id -> ?rate:float -> unit -> printer
(** Responds to [Print(source_uid)]: reads the source's
    {!T.Channel.output} to exhaustion onto paper, then replies — "a
    file could be printed simply by requesting the printer server to
    read from the file" (§4).  Concurrent [Print]s are serialised, like
    a spool. *)

val op_print : string

val print : Kernel.ctx -> printer:Uid.t -> Uid.t -> unit
(** Client convenience: prints the source's {!T.Channel.output} and
    blocks until the job is on paper. *)

(** {1 Report windows} *)

val report_window_wo :
  Kernel.t -> ?node:Eden_net.Net.node_id -> ?name:string -> writers:int -> unit -> display
(** Figure 3's window: a passive fan-in sink on {!T.Channel.report}.
    Accepts deposits from any number of senders; [done_] fires after
    [writers] end-of-stream marks. *)

val report_window_ro :
  Kernel.t ->
  ?node:Eden_net.Net.node_id ->
  ?name:string ->
  ?batch:int ->
  watch:(string * Uid.t * T.Channel.t) list ->
  unit ->
  display
(** Figure 4's window: actively reads each watched [(label, uid,
    channel)] report stream, rendering ["label | line"].  Start with
    {!Kernel.poke}; [done_] fires when every watched stream has ended. *)
