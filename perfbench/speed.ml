(* The host's speed, measured next to every timed run.

   On a small VM shared with other guests the host's speed drifts by up
   to 1.7x within an hour, far more than any bound a timing could keep.
   So each timed run is bracketed by a fixed calibration kernel and its
   timings are rescaled to a reference host on which the kernel takes
   [reference_s]: on a host running at half speed the
   kernel takes twice as long and the run's times are halved.  The
   kernel uses the OCaml standard library only — no code of this
   repository — so no change to the system under test can move it.  It
   has the system's shape: it maps and splits short strings and builds
   lists of them, so it allocates and promotes like the workloads do. *)

(* Seconds the kernel takes on the reference host (the quiet state of a
   2 vCPU Xeon VM at 2.0 GHz).  Changing it rescales every reported
   time; it is a unit, not a tuning knob. *)
let reference_s = 0.0045

(* About 2000 lines of 3-9 lowercase words, from a fixed LCG. *)
let text =
  let state = ref 12345 in
  let next bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  Array.init 2000 (fun _ ->
      String.concat " "
        (List.init (3 + next 7) (fun _ ->
             String.init (2 + next 8) (fun _ -> Char.chr (97 + next 26)))))

let kernel () =
  let l = Array.to_list text in
  for _ = 1 to 6 do
    let up = List.map (String.map Char.uppercase_ascii) l in
    let joined = List.map (fun s -> String.concat "-" (String.split_on_char ' ' s)) up in
    ignore (Sys.opaque_identity (List.rev joined))
  done

(* Seconds one run of the kernel takes now, best of three: a sample
   that lost the CPU to another process says nothing about speed. *)
let sample () =
  let best = ref infinity in
  for _ = 1 to 3 do
    Gc.minor ();
    let t0 = Clock.now_ns () in
    kernel ();
    best := Float.min !best ((Clock.now_ns () -. t0) *. 1e-9)
  done;
  !best

(* [f ()] bracketed by calibrations: its result and the factor that
   rescales its times to the reference host (below 1 when this host is
   slow). *)
let bracket f =
  let before = sample () in
  let r = f () in
  let after = sample () in
  (r, reference_s /. ((before +. after) /. 2.))
