module Net = Eden_net.Net

type action = Pass | Drop | Delay of float
type event = Ok | Lose | Cut | Slow of float

type t = {
  mutable script : event list;
  mutable partitioned : bool;
  mutable m : Net.meter;
}

let none () = { script = []; partitioned = false; m = Net.empty_meter }
let of_script script = { script; partitioned = false; m = Net.empty_meter }

let of_events events =
  (* The simulator can emit a loss coin AND a partition note for one
     frame (partition wins the accounting); collapse such pairs so one
     wire frame consumes one event. *)
  let rec fold acc = function
    | [] -> List.rev acc
    | ("net.loss", _) :: ("net.partition", 1) :: tl -> fold (Cut :: acc) tl
    | ("net.loss", l) :: tl -> fold ((if l = 1 then Lose else Ok) :: acc) tl
    | ("net.partition", 1) :: tl -> fold (Cut :: acc) tl
    | _ :: tl -> fold acc tl
  in
  of_script (fold [] events)

let partition t = t.partitioned <- true
let heal t = t.partitioned <- false

let apply t ~size =
  t.m <- { t.m with Net.sent = t.m.Net.sent + 1; bytes = t.m.Net.bytes + size };
  let drop_partition () =
    t.m <-
      { t.m with
        Net.dropped = t.m.Net.dropped + 1;
        dropped_partition = t.m.Net.dropped_partition + 1 };
    Drop
  in
  (* Partitioned: the frame never reaches the medium, so no script
     event (the loss coin) is consumed for it. *)
  if t.partitioned then drop_partition ()
  else begin
    let ev =
      match t.script with
      | [] -> Ok
      | e :: tl ->
          t.script <- tl;
          e
    in
    match ev with
    | Cut -> drop_partition ()
    | Lose ->
        t.m <-
          { t.m with
            Net.dropped = t.m.Net.dropped + 1;
            dropped_loss = t.m.Net.dropped_loss + 1 };
        Drop
    | Slow d ->
        t.m <- { t.m with Net.delivered = t.m.Net.delivered + 1 };
        Delay d
    | Ok ->
        t.m <- { t.m with Net.delivered = t.m.Net.delivered + 1 };
        Pass
  end

let meter t = t.m
let remaining t = List.length t.script
