(* The byte-identical equivalence matrix of the chunked data plane.

   Every figure of the paper (F1 conventional, F2 read-only, F3
   write-only with reports, F4 read-only with a report window) plus
   the fan-in runs its data plane chunked — flat byte slices cut at
   seed-varied, line-misaligned positions — against the boxed batch=1
   oracle, across the deterministic, wire (unix and tcp) and parallel
   runtimes.  The contract: output byte streams, per-branch order and
   report streams match bit-for-bit, EOS arrives exactly once and
   last, and the chunked run actually moved chunks — a silently
   downgraded config FAILS the plane-intact assertion rather than
   passing a vacuous boxed-vs-boxed comparison.

   Case order matters: wire cases (which fork leaf processes) are
   listed before parallel cases (which spawn domains) because OCaml 5
   forbids fork once any domain has ever been spawned.  See main.ml. *)

module Topo = Eden_par.Topo
module Cluster = Eden_par.Cluster
module Transport = Eden_wire.Transport

let check = Alcotest.check

let domains = 3
let items = 24
let filters = 3
let branches = 4

(* EDEN_SEED varies where chunk boundaries fall and how aggressively
   pushes coalesce; every size is deliberately line-misaligned. *)
let seed_int = Int64.to_int Seed.base land 0xFFFF

let plane i =
  Topo.chunked
    ~cut:(17 + ((seed_int + (i * 37)) mod 241))
    ~chunk_bytes:(192 + (64 * ((seed_int + i) mod 7)))
    ()

let det = Cluster.Deterministic
let par = Cluster.Parallel
let wire tr = Cluster.Wire { Cluster.wire_transport = tr; wire_faults = None; wire_auth = None }

let figure plane = function
  | `F1 -> Topo.f1 ~plane ~domains ~filters ~items ()
  | `F2 -> Topo.f2 ~plane ~domains ~filters ~items ()
  | `F3 -> Topo.f3 ~plane ~domains ~items ()
  | `F4 -> Topo.f4 ~plane ~domains ~items ()
  | `Fanin -> Topo.fanin_bytes ~plane ~domains ~branches ~items ()

let name_of = function
  | `F1 -> "f1"
  | `F2 -> "f2"
  | `F3 -> "f3"
  | `F4 -> "f4"
  | `Fanin -> "fanin"

(* The oracles: boxed, batch 1, deterministic.  Computed once. *)
let oracles =
  List.map
    (fun fig -> (fig, lazy (Topo.run det ~domains (figure Topo.Boxed fig))))
    [ `F1; `F2; `F3; `F4; `Fanin ]

let oracle_of fig = Lazy.force (List.assoc fig oracles)

(* F3's reports deposit into their own sink as boxed text on either
   plane; every other boxed item on a chunked run is a straggler. *)
let report_sink_lines (o : Topo.outcome) =
  match List.assoc_opt "repsink" o.sinks with
  | Some b -> List.length (String.split_on_char '\n' b) - 1
  | None -> 0

let check_outcome name (oracle : Topo.outcome) (out : Topo.outcome) =
  List.iter2
    (fun (sink, want) (_, got) ->
      check Alcotest.string (Printf.sprintf "%s: %s byte-identical" name sink) want got)
    oracle.sinks out.sinks;
  check
    Alcotest.(list (pair string (list string)))
    (name ^ ": byte-identical reports") oracle.reports out.reports;
  check Alcotest.bool (name ^ ": EOS exactly once, last") true out.eos_clean;
  (* Fails, never skips: the chunked plane must have carried chunks. *)
  check Alcotest.bool (name ^ ": chunked plane intact (no silent downgrade)") true
    (out.chunk_items > 0);
  check Alcotest.int (name ^ ": no boxed stragglers") (report_sink_lines out) out.boxed_items

let test_oracles () =
  List.iter
    (fun (fig, o) ->
      let (o : Topo.outcome) = Lazy.force o and name = name_of fig in
      check Alcotest.bool (name ^ ": oracle is boxed") true
        (o.chunk_items = 0 && o.boxed_items > 0);
      check Alcotest.bool (name ^ ": oracle EOS clean") true o.eos_clean;
      check Alcotest.bool (name ^ ": oracle stream non-empty") true
        (List.for_all (fun (_, b) -> String.length b > 0) o.sinks))
    oracles;
  (* Boxed and chunked planes really are different planes. *)
  check Alcotest.bool "planes distinguishable" true
    ((Topo.run det ~domains (figure (plane 0) `F2)).chunk_items > 0)

let test_figs mode mode_name offset () =
  List.iteri
    (fun i fig ->
      let name = Printf.sprintf "%s/%s" (name_of fig) mode_name in
      check_outcome name (oracle_of fig) (Topo.run mode ~domains (figure (plane (offset + i)) fig)))
    [ `F1; `F2; `F3; `F4 ]

let test_fanin mode mode_name i () =
  check_outcome ("fanin/" ^ mode_name) (oracle_of `Fanin)
    (Topo.run mode ~domains (figure (plane i) `Fanin))

(* Wire cases precede parallel cases: forks before any domain spawn. *)
let suite =
  [
    Alcotest.test_case "oracles sane (boxed, deterministic)" `Quick test_oracles;
    Alcotest.test_case "figures chunked = oracle [deterministic]" `Quick
      (test_figs det "det" 0);
    Alcotest.test_case "fanin chunked = oracle [deterministic]" `Quick
      (test_fanin det "det" 4);
    Alcotest.test_case "figures chunked = oracle [wire unix]" `Quick
      (test_figs (wire Transport.Unix_socket) "unix" 5);
    Alcotest.test_case "fanin chunked = oracle [wire unix]" `Quick
      (test_fanin (wire Transport.Unix_socket) "unix" 9);
    Alcotest.test_case "figures chunked = oracle [wire tcp]" `Quick
      (test_figs (wire Transport.Tcp) "tcp" 10);
    Alcotest.test_case "fanin chunked = oracle [wire tcp]" `Quick
      (test_fanin (wire Transport.Tcp) "tcp" 14);
    Alcotest.test_case "figures chunked = oracle [parallel]" `Quick
      (test_figs par "par" 15);
    Alcotest.test_case "fanin chunked = oracle [parallel]" `Quick
      (test_fanin par "par" 19);
  ]
