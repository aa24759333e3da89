(* Property suite for the flat entity stores behind the million-entity
   kernel: the generation-stamped slab, the index-backed timer heap and
   the circular run queue (Eden_util), plus the kernel's UID-keyed
   Estore.  Each property interprets a random alloc/free/reuse command
   sequence against a reference model, so slot recycling is exercised
   hard: the free list is LIFO, so even short sequences rehit slots. *)

module Slab = Eden_util.Slab
module Theap = Eden_util.Theap
module Cqueue = Eden_util.Cqueue
open Eden_kernel

let prop name ?(count = 200) gen f = Seed.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* A command stream over a slab: allocate a value, free the i-th live
   handle, or poke the i-th stale handle.  Indices are taken mod the
   respective population so every generated stream is meaningful. *)
type cmd = Alloc of int | Free_live of int | Hit_stale of int

let cmd_gen =
  QCheck2.Gen.(
    list_size (int_range 1 120)
      (oneof
         [
           map (fun v -> Alloc v) small_nat;
           map (fun i -> Free_live i) small_nat;
           map (fun i -> Hit_stale i) small_nat;
         ]))

(* Interpret [cmds], checking live hits, stale misses and no-double-hand
   at every step.  Returns the surviving (handle, value) model, newest
   first, and the stale handles, for end-state checks. *)
let run_slab_cmds slab cmds =
  let model = ref [] in
  let stale = ref [] in
  List.iter
    (fun cmd ->
      match cmd with
      | Alloc v ->
          let h = Slab.alloc slab v in
          if List.mem_assoc h !model then failwith "handle already live";
          if List.mem h !stale then failwith "stale handle resurrected";
          model := (h, v) :: !model
      | Free_live i -> (
          match !model with
          | [] -> ()
          | l ->
              let h, v = List.nth l (i mod List.length l) in
              (match Slab.free slab h with
              | Some v' when v' = v -> ()
              | Some _ -> failwith "freed wrong payload"
              | None -> failwith "live free missed");
              model := List.remove_assoc h l;
              stale := h :: !stale)
      | Hit_stale i -> (
          match !stale with
          | [] -> ()
          | l ->
              let h = List.nth l (i mod List.length l) in
              if Slab.mem slab h then failwith "stale handle hit";
              if Slab.get slab h <> None then failwith "stale get hit";
              if Slab.set slab h 0 then failwith "stale set wrote";
              if Slab.free slab h <> None then failwith "double free handed a payload"))
    cmds;
  (!model, !stale)

let prop_slab_model =
  prop "slab: random alloc/free/reuse matches model" cmd_gen (fun cmds ->
      let slab = Slab.create ~capacity:2 ~dummy:(-1) () in
      let model, stale = run_slab_cmds slab cmds in
      (* Every live handle still hits its own value; every stale handle
         still misses (later reuse must not have resurrected it). *)
      List.for_all (fun (h, v) -> Slab.get slab h = Some v) model
      && List.for_all (fun h -> not (Slab.mem slab h)) stale
      && Slab.live slab = List.length model)

let prop_slab_iteration =
  prop "slab: iteration is deterministic and slot-ordered" cmd_gen (fun cmds ->
      let collect () =
        let slab = Slab.create ~capacity:2 ~dummy:(-1) () in
        ignore (run_slab_cmds slab cmds);
        List.rev (Slab.fold (fun h v acc -> (h, v) :: acc) slab [])
      in
      let a = collect () in
      (* Same history, fresh store: identical traversal — iteration is a
         function of the alloc/free sequence alone, never of hashing. *)
      let b = collect () in
      let slots = List.map (fun (h, _) -> Slab.slot_of h) a in
      a = b && slots = List.sort_uniq compare slots)

let drain h =
  let rec go acc =
    match Theap.delete_min h with None -> List.rev acc | Some kv -> go (kv :: acc)
  in
  go []

let prop_theap_drains_sorted =
  prop "theap: delete_min drains in (key, insertion) order"
    QCheck2.Gen.(list_size (int_range 1 80) (pair (int_bound 5) small_nat))
    (fun entries ->
      let h = Theap.create ~dummy:(-1) () in
      List.iteri
        (fun i (k, v) -> ignore (Theap.insert h (float_of_int k) ((i * 1000) + v)))
        entries;
      (* Values carry their insertion rank, so stability — equal keys
         leaving in arrival order — is directly observable. *)
      let expected =
        List.mapi (fun i (k, v) -> (float_of_int k, (i * 1000) + v)) entries
        |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
      in
      drain h = expected && Theap.size h = 0)

let prop_theap_remove_physical =
  prop "theap: remove deletes physically, stale handles miss"
    QCheck2.Gen.(list_size (int_range 1 80) (triple (int_bound 5) small_nat bool))
    (fun entries ->
      let h = Theap.create ~dummy:(-1) () in
      let kept = ref [] and removed = ref [] in
      List.iteri
        (fun i (k, v, remove) ->
          let hd = Theap.insert h (float_of_int k) ((i * 1000) + v) in
          if remove then removed := hd :: !removed
          else kept := (float_of_int k, (i * 1000) + v) :: !kept)
        entries;
      List.iter (fun hd -> ignore (Theap.remove h hd)) !removed;
      Theap.size h = List.length !kept
      && List.for_all (fun hd -> not (Theap.remove h hd)) !removed
      && drain h
         = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) (List.rev !kept))

(* The tie operations behind [Sched]'s timer chooser.  Keys order as
   [Float.compare] orders them, so NaN sorts below every number: a NaN
   key is the minimum, and NaN keys tie with each other. *)
let key = Alcotest.testable (fun ppf -> Format.fprintf ppf "%g") Float.equal

let theap_of entries =
  let h = Theap.create ~dummy:"" () in
  List.iter (fun (k, v) -> ignore (Theap.insert h k v)) entries;
  h

let test_theap_min_tie_count () =
  Alcotest.(check int) "empty" 0 (Theap.min_tie_count (theap_of []));
  let h = theap_of [ (2., "x"); (1., "a"); (1., "b"); (3., "y"); (1., "c") ] in
  Alcotest.(check int) "three tied at the min" 3 (Theap.min_tie_count h);
  ignore (Theap.delete_min h);
  Alcotest.(check int) "two after one pop" 2 (Theap.min_tie_count h);
  let h = theap_of [ (1., "a"); (nan, "p"); (0., "z"); (nan, "q"); (nan, "r") ] in
  Alcotest.(check int) "three tied at a NaN min" 3 (Theap.min_tie_count h);
  ignore (Theap.delete_min h);
  Alcotest.(check int) "two NaN after one pop" 2 (Theap.min_tie_count h)

let test_theap_delete_nth_min () =
  let mk () = theap_of [ (1., "a"); (2., "x"); (1., "b"); (1., "c") ] in
  let a = mk () and b = mk () in
  (match (Theap.delete_nth_min a 0, Theap.delete_min b) with
  | Some (k, v), Some (k', v') ->
      Alcotest.check key "index 0: same key as delete_min" k' k;
      Alcotest.(check string) "index 0: same value" v' v;
      Alcotest.(check (list (pair (float 0.) string))) "same remaining order" (drain b) (drain a)
  | _ -> Alcotest.fail "unexpected empty");
  let pick i expect rest =
    let h = mk () in
    match Theap.delete_nth_min h i with
    | Some (1., v) ->
        Alcotest.(check string) (Printf.sprintf "tie %d" i) expect v;
        Alcotest.(check (list (pair (float 0.) string)))
          "others keep insertion order" rest (drain h)
    | _ -> Alcotest.fail "wrong tie extracted"
  in
  pick 1 "b" [ (1., "a"); (1., "c"); (2., "x") ];
  pick 2 "c" [ (1., "a"); (1., "b"); (2., "x") ];
  Alcotest.(check bool) "empty heap" true (Theap.delete_nth_min (theap_of []) 0 = None);
  Alcotest.check_raises "index beyond tie count"
    (Invalid_argument "Theap.delete_nth_min: index beyond tie count") (fun () ->
      ignore (Theap.delete_nth_min (mk ()) 3));
  Alcotest.check_raises "negative index" (Invalid_argument "Theap.delete_nth_min: negative index")
    (fun () -> ignore (Theap.delete_nth_min (mk ()) (-1)));
  let h = theap_of [ (nan, "p"); (0., "z"); (nan, "q"); (nan, "r") ] in
  (match Theap.delete_nth_min h 1 with
  | Some (k, v) ->
      Alcotest.check key "NaN tie's key" nan k;
      Alcotest.(check string) "second NaN tie" "q" v
  | None -> Alcotest.fail "unexpected empty");
  match Theap.delete_nth_min h 1 with
  | Some (_, v) -> Alcotest.(check string) "then the third" "r" v
  | None -> Alcotest.fail "unexpected empty"

(* Any sequence of tie-indexed deletions agrees with a model kept in
   (key, insertion) order: each step's tie count, the entry it takes,
   and the order the survivors drain in. *)
let prop_theap_delete_nth_stability =
  prop "theap: delete_nth_min preserves stability"
    QCheck2.Gen.(
      pair (list_size (int_range 1 40) (oneofl [ nan; 0.; 1.; 2. ])) (small_list small_nat))
    (fun (keys, picks) ->
      let h = Theap.create ~dummy:(-1) () in
      List.iteri (fun i k -> ignore (Theap.insert h k i)) keys;
      let model =
        ref (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) (List.mapi (fun i k -> (k, i)) keys))
      in
      List.for_all
        (fun pick ->
          let ties =
            match !model with
            | [] -> []
            | (k, _) :: _ -> List.filter (fun (k', _) -> Float.equal k k') !model
          in
          let m = List.length ties in
          Theap.min_tie_count h = m
          && (m = 0
             ||
             let k, v = List.nth ties (pick mod m) in
             model := List.filter (fun (_, v') -> v' <> v) !model;
             match Theap.delete_nth_min h (pick mod m) with
             | Some (k', v') -> Float.equal k k' && v = v'
             | None -> false))
        picks
      && compare (drain h) !model = 0)

let prop_cqueue_matches_queue =
  prop "cqueue: push/pop/take_nth matches reference queue"
    QCheck2.Gen.(list_size (int_range 1 150) (pair (int_bound 2) small_nat))
    (fun cmds ->
      let cq = Cqueue.create ~capacity:1 () in
      let model = ref [] in
      let contents () =
        let acc = ref [] in
        Cqueue.iter (fun y -> acc := y :: !acc) cq;
        List.rev !acc
      in
      List.for_all
        (fun (op, v) ->
          match op with
          | 0 ->
              Cqueue.push cq v;
              model := !model @ [ v ];
              Cqueue.length cq = List.length !model
          | 1 -> (
              match (Cqueue.pop cq, !model) with
              | None, [] -> true
              | Some x, m :: tl ->
                  model := tl;
                  x = m
              | _ -> false)
          | _ ->
              if !model = [] then Cqueue.pop cq = None
              else begin
                let i = v mod List.length !model in
                let expected = List.nth !model i in
                let x = Cqueue.take_nth cq i in
                model := List.filteri (fun j _ -> j <> i) !model;
                (* the taken element is right and the rest keep order *)
                x = expected && contents () = !model
              end)
        cmds)

(* Estore through the kernel: a destroyed Eject's UID misses (the slot
   is physically recycled by later creations), survivors still hit, and
   a foreign kernel's UID — same dense serial, different random tag —
   never aliases a slot. *)
let prop_estore_no_alias =
  prop "estore: stale/foreign UIDs miss, live UIDs hit" ~count:60
    QCheck2.Gen.(list_size (int_range 1 40) bool)
    (fun destroys ->
      let trivial ctx ~passive:_ =
        [
          ("Echo", Fun.id);
          ( "Vanish",
            fun _ ->
              Kernel.destroy ctx;
              Value.Unit );
        ]
      in
      let k = Kernel.create () in
      let uids = List.map (fun d -> (Kernel.create_eject k ~type_name:"cell" trivial, d)) destroys in
      (* A distinct seed: with the default both kernels would mint
         identical (tag, serial) sequences and "foreign" would hit. *)
      let foreign = Kernel.create ~seed:0x0F0E1L () in
      let foreign_uids =
        List.map (fun _ -> Kernel.create_eject foreign ~type_name:"cell" trivial) destroys
      in
      Kernel.run_driver k (fun ctx ->
          List.iter
            (fun (uid, destroy) ->
              if destroy then ignore (Kernel.call ctx uid ~op:"Vanish" Value.Unit))
            uids;
          (* Refill the recycled slots so stale lookups really do land
             on reoccupied cells, not just empty ones. *)
          List.iter
            (fun (_, d) ->
              if d then ignore (Kernel.create_eject k ~type_name:"refill" trivial))
            uids);
      List.for_all (fun (uid, destroyed) -> Kernel.exists k uid = not destroyed) uids
      && List.for_all (fun (uid, destroyed) ->
             if destroyed then
               match
                 let r = ref (Error "unset") in
                 Kernel.run_driver k (fun ctx ->
                     r := Kernel.invoke ctx uid ~op:"Echo" Value.Unit);
                 !r
               with
               | Error "no such eject" -> true
               | Ok _ | Error _ -> false
             else true)
           uids
      && List.for_all (fun uid -> not (Kernel.exists foreign uid)) (List.map fst uids)
      && List.for_all (fun uid -> not (Kernel.exists k uid)) foreign_uids)

let suite =
  [
    prop_slab_model;
    prop_slab_iteration;
    prop_theap_drains_sorted;
    prop_theap_remove_physical;
    ("theap: min_tie_count, NaN included", `Quick, test_theap_min_tie_count);
    ("theap: delete_nth_min, NaN included", `Quick, test_theap_delete_nth_min);
    prop_theap_delete_nth_stability;
    prop_cqueue_matches_queue;
    prop_estore_no_alias;
  ]
