(* Every exported value has a caller outside its module.

   Usage: exports.exe LIB [DIR...]

   Each [val] (or [external]) in LIB/**/*.mli must be named by some .ml
   file under LIB or a DIR other than the module's own .ml.  Sources are
   parsed, so comments, strings, record fields and labels never count as
   uses, and module paths are resolved: a value counts when it is named
   qualified ([M.f], [Lib.M.f]), through a [module X = M] alias, or bare
   inside [open M], [let open M in], [M.( ... )] or after [include M].

   Each flagged value is printed with its .mli line, as "narrow" when its
   own .ml uses it (drop it from the .mli) or "delete" when nothing does.
   Exit status 1 when any value is flagged. *)

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

(* An export: module path, value name, .mli file and line. *)
type export = { path : string list; name : string; mli : string; line : int }

let rec exports mli path items =
  List.concat_map
    (fun item ->
      match item.psig_desc with
      | Psig_value { pval_name; pval_loc; _ } ->
          [ { path; name = pval_name.txt; mli; line = pval_loc.loc_start.pos_lnum } ]
      | Psig_module { pmd_name = { txt = Some m; _ }; pmd_type = { pmty_desc = Pmty_signature s; _ }; _ }
        ->
          exports mli (path @ [ m ]) s
      | _ -> [])
    items

(* Scope while walking one .ml: local module names and the path each
   stands for, open module paths, and the paths of the module being
   defined and of those enclosing it, innermost first. *)
type env = { aliases : (string * string list) list; opens : string list list; scopes : string list list }

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
      let known = List.map module_name mlis in
      (* A path is canonical once library wrappers (Eden_kernel.Kernel)
         and other unknown prefixes are dropped. *)
      let rec strip = function
        | h :: _ as p when List.mem h known -> p
        | _ :: t -> strip t
        | [] -> []
      in
      let uses = Hashtbl.create 4096 in
      let scan file =
        let env = ref { aliases = []; opens = []; scopes = [ [ module_name file ] ] } in
        let scoped f =
          let saved = !env in
          Fun.protect ~finally:(fun () -> env := saved) f
        in
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
        let use path name =
          if not (List.mem file (Hashtbl.find_all uses (path, name))) then
            Hashtbl.add uses (path, name) file
        in
        let bind name path = env := { !env with aliases = (name, path) :: !env.aliases } in
        let open_ (me : module_expr) =
          match me.pmod_desc with
          | Pmod_ident { txt; _ } -> env := { !env with opens = resolve (flat txt) :: !env.opens }
          | _ -> ()
        in
        let ident = function
          | Longident.Lident name ->
              List.iter (fun o -> use o name) (!env.opens @ !env.scopes)
          | Ldot (p, name) ->
              let p = flat p in
              use (resolve p) name;
              List.iter (fun o -> use (o @ p) name) !env.opens
          | Lapply _ -> ()
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
                | _ -> default.structure_item it item);
            expr =
              (fun it e ->
                match e.pexp_desc with
                | Pexp_ident { txt; _ } -> ident txt
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
      let flagged =
        List.filter_map
          (fun e ->
            let own = Filename.remove_extension e.mli ^ ".ml" in
            match Hashtbl.find_all uses (e.path, e.name) with
            | users when List.exists (fun f -> f <> own) users -> None
            | [] -> Some (e, "no caller: delete")
            | _ -> Some (e, "used only in " ^ own ^ ": narrow"))
          all
      in
      List.iter
        (fun (e, verdict) ->
          Printf.printf "%s:%d: %s.%s: %s\n" e.mli e.line (String.concat "." e.path) e.name verdict)
        flagged;
      if flagged <> [] then (
        Printf.printf "%d of %d exported values have no caller outside their module\n"
          (List.length flagged) (List.length all);
        exit 1)
