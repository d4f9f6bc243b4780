(* Whole-library index over the .cmt files dune already produces.

   The typed passes work on *canonical value paths*: every way of naming
   a value — directly ([Network.send]), through the library wrapper
   ([Cm_machine.Network.send]), through dune's mangled unit name
   ([Cm_machine__Network.send]), or through a local module alias
   ([module N = Network ... N.send]) — maps to one spelling,
   "Cm_machine.Network.send".  That is what makes the rules
   alias-proof: the Typedtree records resolved [Path.t]s, and local
   aliases are expanded with an alias table collected from the same
   tree.

   The index also records, for every compilation unit:
   - its toplevel value bindings (including nested [struct]s), keyed
     both by canonical path and by definition location, so a
     [Texp_ident] whose [Path.t] is a bare ident (same-unit reference)
     can be resolved through [val_loc];
   - every type declaration's [Types.type_declaration], so the
     closure-compare and hot-alloc checks can expand abbreviations. *)

type binding = {
  b_name : string;
  b_canon : string;  (* canonical dotted path, e.g. "Cm_engine.Sim.post" *)
  b_vb : Typedtree.value_binding;
  b_loc : Location.t;  (* the bound variable's location *)
}

type unit_info = {
  ui_canon : string;  (* canonical module prefix, e.g. "Cm_engine.Sim" *)
  ui_source : string;  (* source path as recorded by the compiler *)
  ui_structure : Typedtree.structure;
  ui_aliases : (string, string) Hashtbl.t;  (* local module name -> canonical prefix *)
  mutable ui_bindings : binding list;
}

type t = {
  units : unit_info list;
  by_canon : (string, binding * unit_info) Hashtbl.t;
  by_decl_loc : (string * int, string) Hashtbl.t;  (* (fname, cnum) -> canonical *)
  type_decls : (string, Types.type_declaration) Hashtbl.t;  (* canonical type path *)
  errors : string list;
}

(* ------------------------------------------------------------------ *)
(* Canonical names                                                    *)
(* ------------------------------------------------------------------ *)

(* "Cm_machine__Network" -> "Cm_machine.Network"; plain names pass through. *)
let canon_unit name =
  let n = String.length name in
  let rec find i =
    if i + 2 > n then None
    else if name.[i] = '_' && name.[i + 1] = '_' then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i when i > 0 && i + 2 < n ->
    let tail = String.sub name (i + 2) (n - i - 2) in
    String.sub name 0 i ^ "." ^ String.capitalize_ascii tail
  | _ -> name

let strip_stdlib s =
  let pfx = "Stdlib." in
  if String.length s > String.length pfx && String.sub s 0 (String.length pfx) = pfx then
    String.sub s (String.length pfx) (String.length s - String.length pfx)
  else s

(* Canonical name of a resolved path, expanding local module aliases
   collected from the same unit. *)
let canon_path ui (p : Path.t) =
  let rec go = function
    | Path.Pident id ->
      let n = Ident.name id in
      (match Hashtbl.find_opt ui.ui_aliases n with
      | Some target -> target
      | None -> canon_unit n)
    | Path.Pdot (p', s) -> go p' ^ "." ^ s
    | Path.Papply (p', _) -> go p'
    | Path.Pextra_ty (p', _) -> go p'
  in
  strip_stdlib (go p)

(* ------------------------------------------------------------------ *)
(* Loading                                                            *)
(* ------------------------------------------------------------------ *)

let rec find_files suffix acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left (fun acc e -> find_files suffix acc (Filename.concat path e)) acc
  else if Filename.check_suffix path suffix then path :: acc
  else acc

let rec peel_module (m : Typedtree.module_expr) =
  match m.mod_desc with
  | Tmod_constraint (m', _, _, _) -> peel_module m'
  | d -> d

let pat_var (p : Typedtree.pattern) =
  match p.pat_desc with
  | Tpat_var (id, name) -> Some (Ident.name id, name.loc)
  | Tpat_alias (_, id, name) -> Some (Ident.name id, name.loc)
  | _ -> None

(* Walk a unit's structure: record aliases, toplevel bindings and type
   declarations, descending into named sub-structures (but not functors —
   a functor body is fresh per application). *)
let index_unit idx ui =
  let rec str prefix (s : Typedtree.structure) =
    List.iter (item prefix) s.str_items
  and item prefix (it : Typedtree.structure_item) =
    match it.str_desc with
    | Tstr_value (_, vbs) ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          match pat_var vb.vb_pat with
          | None -> ()
          | Some (name, loc) ->
            let canon = prefix ^ "." ^ name in
            let b = { b_name = name; b_canon = canon; b_vb = vb; b_loc = loc } in
            ui.ui_bindings <- b :: ui.ui_bindings;
            Hashtbl.replace idx.by_canon canon (b, ui);
            let key pos = (pos.Lexing.pos_fname, pos.Lexing.pos_cnum) in
            Hashtbl.replace idx.by_decl_loc (key loc.Location.loc_start) canon;
            Hashtbl.replace idx.by_decl_loc (key vb.vb_loc.Location.loc_start) canon)
        vbs
    | Tstr_type (_, decls) ->
      List.iter
        (fun (d : Typedtree.type_declaration) ->
          Hashtbl.replace idx.type_decls (prefix ^ "." ^ d.typ_name.txt) d.typ_type)
        decls
    | Tstr_module mb -> module_binding prefix mb
    | Tstr_recmodule mbs -> List.iter (module_binding prefix) mbs
    | Tstr_include { incl_mod; _ } -> (
      match peel_module incl_mod with
      | Tmod_structure s -> str prefix s
      | _ -> ())
    | _ -> ()
  and module_binding prefix (mb : Typedtree.module_binding) =
    match mb.mb_name.txt with
    | None -> ()
    | Some name -> (
      match peel_module mb.mb_expr with
      | Tmod_ident (p, _) ->
        (* A module alias: record the expansion so [canon_path] sees
           through it. *)
        Hashtbl.replace ui.ui_aliases name (canon_path ui p)
      | Tmod_structure s -> str (prefix ^ "." ^ name) s
      | _ -> ())
  in
  str ui.ui_canon ui.ui_structure

let load ~roots =
  let idx =
    {
      units = [];
      by_canon = Hashtbl.create 512;
      by_decl_loc = Hashtbl.create 512;
      type_decls = Hashtbl.create 128;
      errors = [];
    }
  in
  let cmts =
    List.fold_left (fun acc r -> if Sys.file_exists r then find_files ".cmt" acc r else acc) [] roots
    |> List.sort String.compare
  in
  let units = ref [] and errors = ref [] in
  List.iter
    (fun path ->
      match Cmt_format.read_cmt path with
      | exception exn ->
        errors := Printf.sprintf "%s: unreadable cmt: %s" path (Printexc.to_string exn) :: !errors
      | infos -> (
        match (infos.cmt_annots, infos.cmt_sourcefile) with
        | Implementation structure, Some src when Filename.check_suffix src ".ml" ->
          let ui =
            {
              ui_canon = canon_unit infos.cmt_modname;
              ui_source = src;
              ui_structure = structure;
              ui_aliases = Hashtbl.create 8;
              ui_bindings = [];
            }
          in
          units := ui :: !units
        | _ -> ()))
    cmts;
  let idx = { idx with units = List.rev !units; errors = List.rev !errors } in
  List.iter (fun ui -> index_unit idx ui) idx.units;
  idx

(* ------------------------------------------------------------------ *)
(* Reference resolution                                               *)
(* ------------------------------------------------------------------ *)

(* Canonical name of an identifier use, alias-expanded.  Bare idents are
   resolved through the declaration-location table: a same-unit toplevel
   reference resolves to its canonical path; a genuinely local variable
   resolves to [None]. *)
let resolve idx ui (p : Path.t) (vd : Types.value_description) =
  match p with
  | Path.Pident _ ->
    let pos = vd.val_loc.Location.loc_start in
    Hashtbl.find_opt idx.by_decl_loc (pos.Lexing.pos_fname, pos.Lexing.pos_cnum)
  | _ -> Some (canon_path ui p)

(* All canonical toplevel values referenced from [e] (descending into
   function bodies — this is the call/reference graph edge set). *)
let refs_of_expr idx ui (e : Typedtree.expression) =
  let acc = ref [] in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, vd) -> (
      match resolve idx ui p vd with
      | Some canon when Hashtbl.mem idx.by_canon canon -> acc := canon :: !acc
      | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  iter.expr iter e;
  List.sort_uniq String.compare !acc

let line_of (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

let file_of (loc : Location.t) = loc.loc_start.Lexing.pos_fname
