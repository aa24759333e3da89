module Uid = Eden_kernel.Uid
module Value = Eden_kernel.Value

type t = Num of int | Cap of Uid.t

let output = Num 0
let report = Num 1

let equal a b =
  match a, b with
  | Num x, Num y -> x = y
  | Cap x, Cap y -> Uid.equal x y
  | (Num _ | Cap _), _ -> false

let pp ppf = function
  | Num n -> Format.fprintf ppf "ch:%d" n
  | Cap u -> Format.fprintf ppf "ch:%s" (Uid.to_string u)

let to_string c = Format.asprintf "%a" pp c

let to_value = function Num n -> Value.Int n | Cap u -> Value.Uid u

let of_value = function
  | Value.Int n -> Num n
  | Value.Uid u -> Cap u
  | v -> raise (Value.Protocol_error ("not a channel identifier: " ^ Value.to_string v))
