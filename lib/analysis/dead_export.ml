(* Dead exports: values an interface exports that no other compilation
   unit uses (DESIGN.md §14, "Check: dead exports").

   An export is every [val]/[external] of an .mli, read from its .cmti,
   nested [sig]s included ("Cm_engine.Check.Linear.scoped").  A
   user is any *other* unit whose Typedtree names the value: a
   [Texp_ident], or a binding operator, whose [let*]/[and*] is recorded
   only as the letop's [bop_op_path].  Names are compared canonically
   (Cmt_index.canon_path), so library wrappers, dune's mangled unit
   names and local module aliases all count.  A value its own module
   still uses is a dead *export*, not dead code: the finding asks for
   the [val], not the definition. *)

let rule = "dead-export"

(* The simulation libraries' interfaces, against every unit that links
   them: tests count, because an oracle or a fault control that only a
   test calls is still part of what the repository checks.  The typed
   fixtures do not: they are lint input, not users.  The analyzer's own
   library has no interfaces and links none of these. *)
let export_roots = [ "lib" ]
let user_roots = [ "lib"; "bin"; "perfbench"; "examples"; "test" ]
let skipped = [ "lib/analysis"; "test/typed_fixtures" ]

let under dirs file = List.exists (fun d -> String.starts_with ~prefix:(d ^ "/") file) dirs

(* (canonical name, declaration) for each value [path]'s interface exports. *)
let exports_of path =
  match Cmt_format.read_cmt path with
  | { cmt_annots = Interface sg; cmt_modname; _ } ->
    let rec items prefix (sg : Typedtree.signature) =
      List.concat_map
        (fun (it : Typedtree.signature_item) ->
          match it.sig_desc with
          | Tsig_value vd -> [ (prefix ^ "." ^ vd.val_name.txt, vd.val_loc) ]
          | Tsig_module
              { md_name = { txt = Some name; _ }; md_type = { mty_desc = Tmty_signature s; _ }; _ } ->
            items (prefix ^ "." ^ name) s
          | _ -> [])
        sg.sig_items
    in
    items (Cmt_index.canon_unit cmt_modname) sg
  | _ -> []

(* [run ~exports ~users ()]: one finding per value exported by an .mli
   under [exports] that no unit under [users] other than its own
   references; units whose source lies under [skip] are neither. *)
let run ?(skip = skipped) ~exports ~users () =
  let declared =
    List.fold_left (Cmt_index.find_files ".cmti") [] exports
    |> List.sort String.compare |> List.concat_map exports_of
    |> List.filter (fun (_, loc) -> not (under skip (Cmt_index.file_of loc)))
  in
  let used = Hashtbl.create 1024 in
  let idx = Cmt_index.load ~roots:users in
  List.iter
    (fun (ui : Cmt_index.unit_info) ->
      if not (under skip ui.ui_source) then begin
        let self = ui.ui_canon ^ "." in
        let use p =
          let c = Cmt_index.canon_path ui p in
          if not (String.starts_with ~prefix:self c) then Hashtbl.replace used c ()
        in
        let expr sub (e : Typedtree.expression) =
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> use p
          | Texp_letop { let_; ands; _ } ->
            List.iter (fun (b : Typedtree.binding_op) -> use b.bop_op_path) (let_ :: ands)
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e
        in
        let iter = { Tast_iterator.default_iterator with expr } in
        iter.structure iter ui.ui_structure
      end)
    idx.units;
  List.filter_map
    (fun (canon, loc) ->
      if Hashtbl.mem used canon then None
      else
        Some
          (Finding.v ~file:(Cmt_index.file_of loc) ~line:(Cmt_index.line_of loc) ~rule
             ~context:canon canon))
    declared
  |> Finding.sort
