(** A small pipeline language over the Eden transput system.

    Syntax (one pipeline per line):

    {v
    source | filter ... | sink
    v}

    Words are whitespace-separated; single or double quotes group.  A
    stage may carry a report redirection [2> window-name] (§5's report
    streams): its progress messages then appear in the named report
    window, shared by every stage that names it — Figures 3 and 4,
    depending on the discipline.

    Sources: [lines w1 w2 ...], [count n [prefix]], [file /path],
    [date n], [random n].  Sinks: [terminal [rate]], [null], [out /path],
    [printer [rate]].  Filters: everything in
    {!Eden_filters.Catalog.names}.

    The same pipeline can be elaborated under any
    {!Eden_transput.Pipeline.discipline}; report redirections are not
    available under [Conventional] (the paper's point is that they fit
    the asymmetric disciplines). *)

module Kernel = Eden_kernel.Kernel
module T = Eden_transput

(** {1 Parsing} *)

type stage = { name : string; args : string list; report : string option }

type ast = stage list

val lex : string -> (string list, string) result
(** Tokens, with quoting resolved; ["|"] and ["2>"] are their own
    tokens.  [Error] on unterminated quotes. *)

val parse : string -> (ast, string) result
(** At least two stages (a source and a sink) are required. *)

(** {1 Running} *)

type env = {
  kernel : Kernel.t;
  fs : Eden_fs.Unix_fs.t;
  fse : Eden_kernel.Uid.t;  (** The UnixFileSystem Eject for [file]/[out]. *)
}

val make_env : unit -> env
(** A fresh kernel with an empty file system served by its Eject. *)

type outcome = {
  rendered : string list;
      (** What the sink displayed ([terminal]/[printer]); empty for
          [null] and [out]. *)
  windows : (string * string list) list;  (** Report windows, by name. *)
  invocations : int;  (** Data-plane invocations the pipeline used. *)
  entities : int;  (** Ejects the pipeline comprised. *)
}

val run :
  env -> ?discipline:T.Pipeline.discipline -> string -> (outcome, string) result
(** Parse, elaborate (default discipline: read-only), drive to
    completion.  All scheduling happens inside; the caller needs no
    fiber context. *)

(** {1 Session builtins}

    The [trace] and [stats] builtins of edensh render through these, so
    the exact lines a session prints are testable without spawning the
    binary. *)

val render_trace : Kernel.t -> string list
(** The kernel's {!Eden_obs.Obs} span log (empty unless spans are
    enabled): one indented line per closed invocation span (start, op,
    destination, round trip, outcome) and per lifecycle instant
    (activate, checkpoint, crash, destroy), in virtual-time order, then
    a ["[N event(s) retained, D dropped, O invocation(s) open]"] footer. *)

val render_stats : Kernel.t -> string list
(** Cumulative session counters: the kernel meter snapshot, then — when
    non-empty — [ops:], [histograms:] and [stages:] sections, then a
    ["spans: ..."] footer. *)

val render_tenants : Kernel.t -> string list
(** The [tenants] builtin: two lines per tenant namespace (violation
    counters, then credit/capability gauges), grouped from the
    ["tenant.<name>.<counter>"] flow stages that {!Eden_tenant}
    registers.  Empty when the kernel has no tenant registry
    installed. *)
