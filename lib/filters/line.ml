module Value = Eden_kernel.Value
module Transform = Eden_transput.Transform

let map f = Transform.map (fun v -> Value.Str (f (Value.to_str v)))

let keep pred = Transform.filter (fun v -> pred (Value.to_str v))

let expand f =
  Transform.stateful ~init:()
    ~step:(fun () v -> ((), List.map (fun s -> Value.Str s) (f (Value.to_str v))))
    ~flush:(fun () -> [])

let stateful ~init ~step ~flush =
  Transform.stateful ~init
    ~step:(fun s v ->
      let s', outs = step s (Value.to_str v) in
      (s', List.map (fun x -> Value.Str x) outs))
    ~flush:(fun s -> List.map (fun x -> Value.Str x) (flush s))

let run t lines =
  List.map Value.to_str (Transform.run_list t (List.map (fun s -> Value.Str s) lines))
