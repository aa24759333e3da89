module Kernel = Eden_kernel.Kernel
module Value = Eden_kernel.Value
module Uid = Eden_kernel.Uid
module Sched = Eden_sched.Sched
module Prng = Eden_util.Prng

type policy = { timeout : float; max_attempts : int; backoff : Backoff.t }

let policy ?(timeout = 10.0) ?(max_attempts = 10) ?(backoff = Backoff.default) () =
  if timeout <= 0.0 then invalid_arg "Retry.policy: timeout must be positive";
  if max_attempts < 1 then invalid_arg "Retry.policy: max_attempts must be at least 1";
  { timeout; max_attempts; backoff }

let default_policy = policy ()

type meter = {
  mutable attempts : int;
  mutable retries : int;
  mutable timeouts : int;
  mutable exhausted : int;
}

let create_meter () = { attempts = 0; retries = 0; timeouts = 0; exhausted = 0 }

type client = { policy : policy; meter : meter option; seed : int64 }

let client ?(policy = default_policy) ?meter seed = { policy; meter; seed }

exception Exhausted of string

let invoke_metered ?(policy = default_policy) ?meter ~prng ctx dst ~op arg =
  let record f = match meter with Some m -> f m | None -> () in
  let rec go attempt prev =
    record (fun m ->
        m.attempts <- m.attempts + 1;
        if attempt > 1 then m.retries <- m.retries + 1);
    match Kernel.invoke_timeout ctx dst ~op arg ~timeout:policy.timeout with
    | Some _ as reply -> reply
    | None ->
        record (fun m -> m.timeouts <- m.timeouts + 1);
        if attempt >= policy.max_attempts then begin
          record (fun m -> m.exhausted <- m.exhausted + 1);
          None
        end
        else begin
          let u = Prng.float prng 1.0 in
          let d = Backoff.delay policy.backoff ~attempt ~u ~prev in
          Sched.sleep d;
          go (attempt + 1) d
        end
  in
  go 1 0.0

let invoke ?policy ~prng ctx dst ~op arg = invoke_metered ?policy ~prng ctx dst ~op arg

let call ?policy ?meter ~prng ctx dst ~op arg =
  match invoke_metered ?policy ?meter ~prng ctx dst ~op arg with
  | Some (Ok v) -> v
  | Some (Error e) -> raise (Kernel.Eden_error e)
  | None -> raise (Exhausted (Printf.sprintf "retry budget exhausted invoking %s" op))
