(** Impure filters: stages with a secondary Report stream (§5).

    "It is also common for a program to produce a stream of Reports
    (i.e. monitoring messages) in addition to its main output stream."
    Two arrangements from the paper:

    - {b Write-only} (Figure 3): the filter actively [Deposit]s its main
      output downstream {e and} its reports to a separately nominated
      destination (typically a report window), both by push.
    - {b Read-only with channel identifiers} (Figure 4): the filter
      serves two channels, {!Eden_transput.Channel.output} and
      {!Eden_transput.Channel.report}; sinks read the one they were told
      about.  Nothing is pushed anywhere.

    A [reporting] transform is an ordinary transform that is also given
    a [report] emitter. *)

module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module T = Eden_transput

type reporting = T.Transform.next -> T.Transform.emit -> T.Transform.emit -> unit
(** [f next emit report]. *)

val with_progress : ?every:int -> label:string -> T.Transform.t -> reporting
(** Wraps a transform so it reports ["label: n items"] after every
    [every] (default 2) items and a final tally at end of stream. *)

val filter_ro :
  Kernel.t ->
  ?node:Eden_net.Net.node_id ->
  ?name:string ->
  ?capacity:int ->
  ?batch:int ->
  upstream:Uid.t ->
  ?upstream_channel:T.Channel.t ->
  reporting ->
  Uid.t
(** Figure 4: passive output on both [Channel.output] and
    [Channel.report].  The report stream needs a reader: once 1 024
    reports sit unread the stage stops, its main stream with it. *)

val filter_wo :
  Kernel.t ->
  ?node:Eden_net.Net.node_id ->
  ?name:string ->
  ?capacity:int ->
  ?batch:int ->
  downstream:Uid.t ->
  ?downstream_channel:T.Channel.t ->
  report_to:Uid.t ->
  ?report_channel:T.Channel.t ->
  reporting ->
  Uid.t
(** Figure 3: active output to [downstream], reports actively pushed to
    [report_to] (on its {!T.Channel.report} by default). *)

val source_wo :
  Kernel.t ->
  ?name:string ->
  downstream:Uid.t ->
  report_to:Uid.t ->
  label:string ->
  T.Stage.gen ->
  Uid.t
(** Figure 3's source also reports; one line per item generated.  Items
    go to [downstream]'s {!T.Channel.output} and reports to
    [report_to]'s {!T.Channel.report}, one item per Deposit. *)

val source_ro :
  Kernel.t ->
  ?node:Eden_net.Net.node_id ->
  ?name:string ->
  ?capacity:int ->
  label:string ->
  T.Stage.gen ->
  Uid.t
(** Figure 4's source: serves [Channel.output] with the data and
    [Channel.report] with one line per item generated.  Its report
    stream needs a reader, as {!filter_ro}'s does. *)
