(* Every exported value, and every optional argument it takes, has a
   caller outside its module.

   Usage: exports.exe LIB [DIR...]

   Each [val] (or [external]) in LIB/**/*.mli must be named by some .ml
   file under LIB or a DIR other than the module's own .ml.  Sources are
   parsed, so comments, strings, record fields and labels never count as
   uses, and module paths are resolved: a value counts when it is named
   qualified ([M.f], [Lib.M.f]), through a [module X = M] alias, or bare
   inside [open M], [let open M in], [M.( ... )] or after [include M].  A
   bare name bound by [let], [fun], [function], [match], [try] or a
   structure item of the file itself names that binding, not the module.

   Each optional argument [?x] of such a value must be passed, as [~x:v],
   [?x:o], [~x] or [?x], by some application of the value in an .ml
   other than its own; a partial application and an application through
   [|>] or [@@] count.  A value named without being applied (passed as a
   function) counts as passing all of its options.

   Each flagged value is printed with its .mli line, as "narrow" when its
   own .ml uses it (drop it from the .mli) or "delete" when nothing does;
   each flagged option as "internal" when its own .ml passes it (drop it
   from the export) or "constant" when nothing does (fold its default
   in).  Exit status 1 when anything is flagged. *)

open Parsetree

let rec files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if name.[0] = '.' || name.[0] = '_' then []
         else if Sys.is_directory path then files path
         else [ path ])

let module_name file = String.capitalize_ascii Filename.(remove_extension (basename file))

let parse parser file =
  In_channel.with_open_bin file (fun ic ->
      let lexbuf = Lexing.from_channel ic in
      Location.init lexbuf file;
      parser lexbuf)

(* An export: module path, value name, its optional labels, .mli file
   and line. *)
type export = {
  path : string list;
  name : string;
  options : string list;
  mli : string;
  line : int;
}

let rec optionals t =
  match t.ptyp_desc with
  | Ptyp_arrow (Optional l, _, r) -> l :: optionals r
  | Ptyp_arrow (_, _, r) | Ptyp_poly (_, r) -> optionals r
  | _ -> []

let rec exports mli path items =
  List.concat_map
    (fun item ->
      match item.psig_desc with
      | Psig_value { pval_name; pval_type; pval_loc; _ } ->
          let line = pval_loc.loc_start.pos_lnum in
          [ { path; name = pval_name.txt; options = optionals pval_type; mli; line } ]
      | Psig_module { pmd_name = { txt = Some m; _ }; pmd_type = { pmty_desc = Pmty_signature s; _ }; _ }
        ->
          exports mli (path @ [ m ]) s
      | _ -> [])
    items

(* The value names a pattern binds. *)
let binders p =
  let names = ref [] in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> names := txt :: !names
          | _ -> ());
          default.pat it p);
    }
  in
  it.pat it p;
  !names

(* What a bare value name may stand for, innermost first: a local of an
   expression, a structure item of the module at a path, or a value of
   an opened module. *)
type entry = Local of string | Def of string list * string | Open of string list

(* Scope while walking one .ml: local module names and the path each
   stands for, the value entries in scope, and the paths of the module
   being defined and of those enclosing it, innermost first. *)
type env = {
  aliases : (string * string list) list;
  entries : entry list;
  scopes : string list list;
}

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] ->
      prerr_endline "usage: exports.exe LIB [DIR...]";
      exit 2
  | lib :: dirs ->
      let mlis = List.filter (fun f -> Filename.check_suffix f ".mli") (files lib) in
      let all =
        List.concat_map (fun m -> exports m [ module_name m ] (parse Parse.interface m)) mlis
      in
      let exported = Hashtbl.create 1024 in
      List.iter (fun e -> Hashtbl.replace exported (e.path, e.name) ()) all;
      let known = List.map module_name mlis in
      (* A path is canonical once library wrappers (Eden_kernel.Kernel)
         and other unknown prefixes are dropped. *)
      let rec strip = function
        | h :: _ as p when List.mem h known -> p
        | _ :: t -> strip t
        | [] -> []
      in
      (* (path, name) -> files naming the value; (path, name, label) ->
         files passing that option, with label "*" for every option. *)
      let uses = Hashtbl.create 4096 in
      let passes = Hashtbl.create 4096 in
      let note tbl key file =
        if not (List.mem file (Hashtbl.find_all tbl key)) then Hashtbl.add tbl key file
      in
      let scan file =
        let env = ref { aliases = []; entries = []; scopes = [ [ module_name file ] ] } in
        let scoped f =
          let saved = !env in
          Fun.protect ~finally:(fun () -> env := saved) f
        in
        let push entries = env := { !env with entries = entries @ !env.entries } in
        let locals p = push (List.map (fun n -> Local n) (binders p)) in
        let resolve = function
          | h :: t as p -> (
              match List.assoc_opt h !env.aliases with Some q -> q @ t | None -> strip p)
          | [] -> []
        in
        let rec flat = function
          | Longident.Lident s -> [ s ]
          | Ldot (p, s) -> flat p @ [ s ]
          | Lapply _ -> []
        in
        let bind name path = env := { !env with aliases = (name, path) :: !env.aliases } in
        let open_ (me : module_expr) =
          match me.pmod_desc with
          | Pmod_ident { txt; _ } -> push [ Open (resolve (flat txt)) ]
          | _ -> ()
        in
        (* The (path, name) keys a value name may stand for. *)
        let targets = function
          | Longident.Lident name ->
              let rec find = function
                | Local n :: _ when n = name -> []
                | Def (p, n) :: _ when n = name -> [ (p, name) ]
                | Open p :: _ when Hashtbl.mem exported (p, name) -> [ (p, name) ]
                | _ :: rest -> find rest
                | [] -> List.map (fun s -> (s, name)) !env.scopes
              in
              find !env.entries
          | Ldot (p, name) ->
              let p = flat p in
              (resolve p, name)
              :: List.filter_map (function Open o -> Some (o @ p, name) | _ -> None) !env.entries
          | Lapply _ -> []
        in
        (* A value named with the labels it is applied to, or with None
           when it is not applied. *)
        let ident ?labels lid =
          List.iter
            (fun (p, n) ->
              note uses (p, n) file;
              match labels with
              | None -> note passes (p, n, "*") file
              | Some ls -> List.iter (fun l -> note passes (p, n, l) file) ls)
            (targets lid)
        in
        let default = Ast_iterator.default_iterator in
        (* [module X = M] aliases; any other module expression defines a
           new module inside the current one. *)
        let module_binding it name (me : module_expr) =
          match me.pmod_desc with
          | Pmod_ident { txt; _ } -> bind name (resolve (flat txt))
          | _ ->
              let path = List.hd !env.scopes @ [ name ] in
              scoped (fun () ->
                  env := { !env with scopes = path :: !env.scopes };
                  it.Ast_iterator.module_expr it me);
              bind name path
        in
        let bindings it rec_flag vbs add =
          if rec_flag = Asttypes.Recursive then List.iter (fun vb -> add vb.pvb_pat) vbs;
          List.iter (fun vb -> it.Ast_iterator.expr it vb.pvb_expr) vbs;
          if rec_flag = Nonrecursive then List.iter (fun vb -> add vb.pvb_pat) vbs
        in
        let case it c =
          scoped (fun () ->
              locals c.pc_lhs;
              Option.iter (it.Ast_iterator.expr it) c.pc_guard;
              it.expr it c.pc_rhs)
        in
        let label = function
          | (Asttypes.Labelled l | Optional l), _ -> Some l
          | Nolabel, _ -> None
        in
        let apply it (f : expression) labels =
          match f.pexp_desc with
          | Pexp_ident { txt; _ } -> ident ~labels txt
          | _ -> it.Ast_iterator.expr it f
        in
        let it =
          {
            default with
            structure = (fun it items -> scoped (fun () -> List.iter (it.structure_item it) items));
            structure_item =
              (fun it item ->
                match item.pstr_desc with
                | Pstr_open { popen_expr = me; _ } | Pstr_include { pincl_mod = me; _ } ->
                    it.module_expr it me;
                    open_ me
                | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } ->
                    module_binding it name pmb_expr
                | Pstr_value (rec_flag, vbs) ->
                    let here = List.hd !env.scopes in
                    bindings it rec_flag vbs (fun p ->
                        push (List.map (fun n -> Def (here, n)) (binders p)))
                | Pstr_primitive { pval_name; _ } ->
                    push [ Def (List.hd !env.scopes, pval_name.txt) ]
                | _ -> default.structure_item it item);
            expr =
              (fun it e ->
                match e.pexp_desc with
                | Pexp_ident { txt; _ } -> ident txt
                | Pexp_apply
                    ( { pexp_desc = Pexp_ident { txt = Lident (("|>" | "@@") as op); _ }; _ },
                      [ (_, a); (_, b) ] ) ->
                    let f, x = if op = "|>" then (b, a) else (a, b) in
                    apply it f [];
                    it.expr it x
                | Pexp_apply (f, args) ->
                    apply it f (List.filter_map label args);
                    List.iter (fun (_, a) -> it.expr it a) args
                | Pexp_let (rec_flag, vbs, body) ->
                    scoped (fun () ->
                        bindings it rec_flag vbs locals;
                        it.expr it body)
                | Pexp_fun (_, default, p, body) ->
                    Option.iter (it.expr it) default;
                    scoped (fun () ->
                        locals p;
                        it.expr it body)
                | Pexp_function cases -> List.iter (case it) cases
                | Pexp_match (x, cases) | Pexp_try (x, cases) ->
                    it.expr it x;
                    List.iter (case it) cases
                | Pexp_for (p, lo, hi, _, body) ->
                    it.expr it lo;
                    it.expr it hi;
                    scoped (fun () ->
                        locals p;
                        it.expr it body)
                | Pexp_letop { let_; ands; body } ->
                    List.iter (fun b -> it.expr it b.pbop_exp) (let_ :: ands);
                    scoped (fun () ->
                        List.iter (fun b -> locals b.pbop_pat) (let_ :: ands);
                        it.expr it body)
                | Pexp_open (od, body) ->
                    scoped (fun () ->
                        open_ od.popen_expr;
                        it.expr it body)
                | Pexp_letmodule ({ txt = Some name; _ }, me, body) ->
                    scoped (fun () ->
                        module_binding it name me;
                        it.expr it body)
                | _ -> default.expr it e);
          }
        in
        it.structure it (parse Parse.implementation file)
      in
      List.iter
        (fun dir -> List.iter scan (List.filter (fun f -> Filename.check_suffix f ".ml") (files dir)))
        (lib :: dirs);
      let outside own files = List.exists (fun f -> f <> own) files in
      let flagged, options =
        List.fold_right
          (fun e (flagged, options) ->
            let own = Filename.remove_extension e.mli ^ ".ml" in
            let at =
              Printf.sprintf "%s:%d: %s" e.mli e.line (String.concat "." (e.path @ [ e.name ]))
            in
            match Hashtbl.find_all uses (e.path, e.name) with
            | users when outside own users ->
                let verdict o =
                  let setters k = Hashtbl.find_all passes (e.path, e.name, k) in
                  match setters o @ setters "*" with
                  | setters when outside own setters -> None
                  | [] -> Some (Printf.sprintf "%s ?%s: no caller passes it: constant" at o)
                  | _ -> Some (Printf.sprintf "%s ?%s: passed only in %s: internal" at o own)
                in
                (flagged, List.filter_map verdict e.options @ options)
            | [] -> ((at ^ ": no caller: delete") :: flagged, options)
            | _ -> (Printf.sprintf "%s: used only in %s: narrow" at own :: flagged, options))
          all ([], [])
      in
      List.iter print_endline (flagged @ options);
      if flagged <> [] then
        Printf.printf "%d of %d exported values have no caller outside their module\n"
          (List.length flagged) (List.length all);
      if options <> [] then
        Printf.printf "%d of %d optional arguments are passed by no caller outside their module\n"
          (List.length options)
          (List.fold_left (fun n e -> n + List.length e.options) 0 all);
      if flagged <> [] || options <> [] then exit 1
