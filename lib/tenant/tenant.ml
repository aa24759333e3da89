module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Value = Eden_kernel.Value
module Obs = Eden_obs.Obs
module Credit = Eden_flowctl.Credit
module Channel = Eden_transput.Channel
module Proto = Eden_transput.Proto
module Pull = Eden_transput.Pull

type rights = Read | Write
type violation = Forged_id | Stolen_channel | Replayed_transfer | Credit_hoard

type defect = Revoke_skips_reclaim

type tenant = {
  v_forged : Obs.Flow.stage;
  v_stolen : Obs.Flow.stage;
  v_replay : Obs.Flow.stage;
  v_hoard : Obs.Flow.stage;
  v_revoked : Obs.Flow.stage;
  credits : Obs.Flow.stage; (* gauge: demand in, release/reclaim out *)
  reclaimed : Obs.Flow.stage;
  caps_gauge : Obs.Flow.stage; (* gauge: grant/delegate in, revoke out *)
  mutable outstanding : int; (* admitted, unreplied Transfer credit *)
}

type cap = {
  cid : Uid.t; (* public channel id: requests name [Channel.Cap cid] *)
  tok : Uid.t; (* session token: proves holdership, never on the wire alone *)
  cap_tenant : tenant;
  eject : Uid.t;
  rights : rights;
  underlying : Channel.t;
  mutable children : cap list;
  mutable revoked : bool;
  mutable revision : int; (* bumped by revoke: stale releases are no-ops *)
  mutable cap_outstanding : int;
  seen : (int, unit) Hashtbl.t; (* accepted Transfer seqs (replay filter) *)
  mutable windows : Credit.t list; (* client windows killed with the cap *)
}

type t = {
  k : Kernel.t;
  gen : Uid.gen;
  tenants : (string, tenant) Hashtbl.t;
  caps : cap Uid.Tbl.t;
  protected : tenant Uid.Tbl.t; (* guarded eject -> owner namespace *)
  hoard_quota : int;
  defect : defect option;
}

let auth_tag = "eden.auth"
let violation_stage t = function
  | Forged_id -> t.v_forged
  | Stolen_channel -> t.v_stolen
  | Replayed_transfer -> t.v_replay
  | Credit_hoard -> t.v_hoard

let tenant reg name =
  match Hashtbl.find_opt reg.tenants name with
  | Some t -> t
  | None ->
      let obs = Kernel.obs reg.k in
      let stage suffix = Obs.register_stage obs (Printf.sprintf "tenant.%s.%s" name suffix) in
      let t =
        {
          v_forged = stage "forged_id";
          v_stolen = stage "stolen_channel";
          v_replay = stage "replayed_transfer";
          v_hoard = stage "credit_hoard";
          v_revoked = stage "revoked_use";
          credits = stage "credits";
          reclaimed = stage "credits_reclaimed";
          caps_gauge = stage "caps";
          outstanding = 0;
        }
      in
      Hashtbl.add reg.tenants name t;
      t

(* --- Guard --------------------------------------------------------- *)

let unwrap v =
  match v with
  | Value.List [ Value.Str tag; Value.Uid tok; inner ] when String.equal tag auth_tag ->
      (Some tok, inner)
  | _ -> (None, v)

let refuse stage msg =
  Obs.Flow.note_in stage;
  Error msg

(* Common capability checks for both operations.  Violations are
   charged to the capability's namespace (the victim of theft/replay)
   except forged ids, which have no capability to attribute and go to
   the interface owner. *)
let lookup reg owner ~dst ~need tok_opt chan =
  match chan with
  | Channel.Num _ ->
      refuse owner.v_forged "tenant: forged channel id (integer id on a guarded interface)"
  | Channel.Cap cid -> (
      match Uid.Tbl.find_opt reg.caps cid with
      | None -> refuse owner.v_forged "tenant: unknown capability"
      | Some cap ->
          if not (Uid.equal cap.eject dst) then
            refuse cap.cap_tenant.v_stolen "tenant: capability for a different interface"
          else if cap.revoked then begin
            Obs.Flow.note_in cap.cap_tenant.v_revoked;
            Error "tenant: revoked capability"
          end
          else if not (match tok_opt with Some tok -> Uid.equal tok cap.tok | None -> false)
          then refuse cap.cap_tenant.v_stolen "tenant: session token missing or wrong"
          else if cap.rights <> need then
            refuse cap.cap_tenant.v_stolen
              (match need with
              | Read -> "tenant: capability lacks the Read right"
              | Write -> "tenant: capability lacks the Write right")
          else Ok cap)

let admit_transfer reg owner ~dst arg =
  let tok_opt, inner = unwrap arg in
  match Proto.parse_transfer_request_seq inner with
  | exception Value.Protocol_error _ ->
      refuse owner.v_forged "tenant: malformed Transfer on a guarded interface"
  | chan, credit, seq_opt -> (
      match lookup reg owner ~dst ~need:Read tok_opt chan with
      | Error _ as e -> e
      | Ok cap ->
          let holder = cap.cap_tenant in
          let replayed =
            match seq_opt with Some s -> Hashtbl.mem cap.seen s | None -> false
          in
          if replayed then
            refuse holder.v_replay
              (Printf.sprintf "tenant: replayed Transfer seq %d"
                 (Option.get seq_opt))
          else if holder.outstanding + credit > reg.hoard_quota then
            refuse holder.v_hoard
              (Printf.sprintf "tenant: credit hoard (outstanding %d + %d > quota %d)"
                 holder.outstanding credit reg.hoard_quota)
          else begin
            (match seq_opt with Some s -> Hashtbl.replace cap.seen s () | None -> ());
            holder.outstanding <- holder.outstanding + credit;
            cap.cap_outstanding <- cap.cap_outstanding + credit;
            Obs.Flow.note_in_n holder.credits credit;
            let rev = cap.revision in
            let release _reply =
              (* A revoke in between already reclaimed this demand. *)
              if cap.revision = rev then begin
                cap.cap_outstanding <- max 0 (cap.cap_outstanding - credit);
                holder.outstanding <- max 0 (holder.outstanding - credit);
                Obs.Flow.note_out_n holder.credits credit
              end
            in
            Ok
              ( Proto.transfer_request ?seq:seq_opt cap.underlying ~credit,
                Some release )
          end)

let admit_deposit reg owner ~dst arg =
  let tok_opt, inner = unwrap arg in
  match Proto.parse_deposit_request_seq inner with
  | exception Value.Protocol_error _ ->
      refuse owner.v_forged "tenant: malformed Deposit on a guarded interface"
  | chan, eos, items, seq_opt -> (
      match lookup reg owner ~dst ~need:Write tok_opt chan with
      | Error _ as e -> e
      | Ok cap -> Ok (Proto.deposit_request ?seq:seq_opt cap.underlying ~eos items, None))

let guard reg ~dst ~op arg =
  match Uid.Tbl.find_opt reg.protected dst with
  | None -> Ok (arg, None)
  | Some owner ->
      if String.equal op Proto.transfer_op then admit_transfer reg owner ~dst arg
      else if String.equal op Proto.deposit_op then admit_deposit reg owner ~dst arg
      else
        (* Control traffic — the elastic runtime's eproto sync/finish
           among it — is not stream data and passes unguarded. *)
        Ok (arg, None)

let install ?(hoard_quota = 256) ?defect k =
  if hoard_quota < 1 then invalid_arg "Tenant.install: hoard_quota must be at least 1";
  let reg =
    {
      k;
      gen = Uid.generator ~seed:0x7E4A47L;
      tenants = Hashtbl.create 7;
      caps = Uid.Tbl.create 32;
      protected = Uid.Tbl.create 16;
      hoard_quota;
      defect;
    }
  in
  Kernel.set_guard k (Some (fun ~dst ~op arg -> guard reg ~dst ~op arg));
  reg

(* --- Protection and capabilities ----------------------------------- *)

let protect reg ~owner uid =
  match Uid.Tbl.find_opt reg.protected uid with
  | Some prev when prev != owner ->
      invalid_arg "Tenant.protect: already protected by another tenant"
  | Some _ -> ()
  | None -> Uid.Tbl.replace reg.protected uid owner

let mk_cap reg tenant_ ~rights ~underlying eject =
  let cap =
    {
      cid = Uid.fresh reg.gen;
      tok = Uid.fresh reg.gen;
      cap_tenant = tenant_;
      eject;
      rights;
      underlying;
      children = [];
      revoked = false;
      revision = 0;
      cap_outstanding = 0;
      seen = Hashtbl.create 16;
      windows = [];
    }
  in
  Uid.Tbl.replace reg.caps cap.cid cap;
  Obs.Flow.note_in tenant_.caps_gauge;
  cap

let grant reg tenant_ ~rights ~underlying eject =
  if not (Uid.Tbl.mem reg.protected eject) then
    invalid_arg "Tenant.grant: eject is not protected";
  mk_cap reg tenant_ ~rights ~underlying eject

let delegate reg cap =
  if cap.revoked then invalid_arg "Tenant.delegate: revoked capability";
  let child = mk_cap reg cap.cap_tenant ~rights:cap.rights ~underlying:cap.underlying cap.eject in
  cap.children <- child :: cap.children;
  child

let rec revoke reg cap =
  if not cap.revoked then begin
    cap.revoked <- true;
    Obs.Flow.note_out cap.cap_tenant.caps_gauge;
    (match reg.defect with
    | Some Revoke_skips_reclaim ->
        (* Mutant: the capability dies but its credit does not — bound
           windows stay alive with their in-flight counts stuck and the
           outstanding gauge never drains through reclaim. *)
        ()
    | None ->
        cap.revision <- cap.revision + 1;
        let holder = cap.cap_tenant in
        let server = cap.cap_outstanding in
        cap.cap_outstanding <- 0;
        holder.outstanding <- max 0 (holder.outstanding - server);
        let client =
          List.fold_left (fun acc w -> acc + Credit.revoke w) 0 cap.windows
        in
        let total = server + client in
        if server > 0 then Obs.Flow.note_out_n holder.credits server;
        if total > 0 then Obs.Flow.note_in_n holder.reclaimed total);
    List.iter (revoke reg) cap.children
  end

let channel cap = Channel.Cap cap.cid
let is_revoked cap = cap.revoked
let wrap cap v = Value.List [ Value.Str auth_tag; Value.Uid cap.tok; v ]
let bind_window cap w = cap.windows <- w :: cap.windows

(* --- Tenant-aware connections -------------------------------------- *)

let pull ctx ?flowctl cap =
  if cap.rights <> Read then invalid_arg "Tenant.pull: capability lacks the Read right";
  let p = Pull.connect ctx ?flowctl ~channel:(channel cap) ~wrap:(wrap cap) cap.eject in
  Option.iter (bind_window cap) (Pull.credit p);
  p

(* --- Meters -------------------------------------------------------- *)

let violation_count _reg t v = (violation_stage t v).Obs.Flow.items_in

let revoked_uses _reg t = t.v_revoked.Obs.Flow.items_in
let outstanding_credit _reg t = t.outstanding
let credits_reclaimed _reg t = t.reclaimed.Obs.Flow.items_in
let live_caps _reg t = Obs.Flow.occupancy t.caps_gauge
