(* The identifier rules: determinism, hashtbl-order, raw-send, printf,
   poly-compare and closure-compare.

   They run over the Typedtree with resolved, alias-expanded canonical
   paths, so [module N = Network let f = N.send] or [module R = Random]
   cannot hide a call.  closure-compare does not guess from variable
   names: it asks the type checker whether a compared operand's type
   contains an arrow. *)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  m = 0 || go 0

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let forbidden canon =
  if starts_with ~prefix:"Random." canon then
    Some "use of Random.* (route randomness through Cm_engine.Rng)"
  else if canon = "Sys.time" then Some "Sys.time is wall-clock dependent (use the Sim clock)"
  else if starts_with ~prefix:"Unix." canon then
    Some "use of Unix.* (real-world I/O and time break determinism)"
  else if canon = "Hashtbl.randomize" then
    Some "Hashtbl.randomize makes iteration order per-process"
  else None

let order_sensitive = function "Hashtbl.iter" | "Hashtbl.fold" -> true | _ -> false

let printing = function
  | "Printf.printf" | "Format.printf" | "print_string" | "print_endline" | "print_newline"
  | "print_int" | "print_char" | "print_float" ->
    true
  | _ -> false

let raw_send = function
  | "Cm_machine.Network.send" | "Cm_machine.Network.send_k" -> true
  | _ -> false

let raw_send_applies file = not (contains file "lib/machine")

let poly_compare_scope = [ "lib/engine"; "lib/machine"; "lib/memory"; "fixtures" ]

let poly_compare_applies file = List.exists (contains file) poly_compare_scope

let compare_op = function "=" | "<>" | "compare" -> true | _ -> false

(* Does a type structurally contain an arrow?  Expands abbreviations
   through the index; [Unknown]/type variables do not count (no
   guessing). *)
let contains_arrow idx ty =
  let seen = Hashtbl.create 8 in
  let rec go depth ty =
    depth < 10
    &&
    let id = Types.get_id ty in
    (not (Hashtbl.mem seen id))
    && begin
         Hashtbl.add seen id ();
         match Types.get_desc ty with
         | Tarrow _ -> true
         | Ttuple tys -> List.exists (go (depth + 1)) tys
         | Tpoly (t, _) -> go (depth + 1) t
         | Tconstr (p, args, _) -> (
           List.exists (go (depth + 1)) args
           ||
           match
             Hashtbl.find_opt idx.Cmt_index.type_decls
               (Cmt_index.strip_stdlib (Path.name p))
           with
           | Some { Types.type_manifest = Some t; _ } -> go (depth + 1) t
           | _ -> false)
         | _ -> false
       end
  in
  go 0 ty

(* In the Typedtree an *omitted* optional argument is materialized as a
   [None] construct, so "~random was passed" means: the argument is
   present and is neither that implicit [None] nor an explicit
   [false]/[Some false]. *)
let hashtbl_create_random (args : (Asttypes.arg_label * Typedtree.expression option) list) =
  let benign (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_construct ({ txt = Lident ("None" | "false"); _ }, _, _) -> true
    | Texp_construct
        ( { txt = Lident "Some"; _ },
          _,
          [ { exp_desc = Texp_construct ({ txt = Lident "false"; _ }, _, _); _ } ] ) ->
      true
    | _ -> false
  in
  List.exists
    (fun (label, arg) ->
      match (label, arg) with
      | (Asttypes.Labelled "random" | Asttypes.Optional "random"), Some e -> not (benign e)
      | _ -> false)
    args

let run (idx : Cmt_index.t) =
  let findings = ref [] in
  List.iter
    (fun (ui : Cmt_index.unit_info) ->
      let file = ui.ui_source in
      let add ~line ~rule msg = findings := Finding.v ~file ~line ~rule msg :: !findings in
      (* Heads of applications, so a directly-applied [compare a b]
         (specialized by the compiler) is not flagged as a
         comparison-function value. *)
      let applied_heads : (int, unit) Hashtbl.t = Hashtbl.create 256 in
      let expr sub (e : Typedtree.expression) =
        let line = Cmt_index.line_of e.exp_loc in
        (match e.exp_desc with
        | Texp_ident (p, _, _) -> (
          let canon = Cmt_index.canon_path ui p in
          (match forbidden canon with
          | Some msg -> add ~line ~rule:"determinism" msg
          | None -> ());
          if order_sensitive canon then
            add ~line ~rule:"hashtbl-order"
              (Printf.sprintf
                 "%s iterates in unspecified order; sort the result or justify with an \
                  allow comment"
                 canon);
          if raw_send canon && raw_send_applies file then
            add ~line ~rule:"raw-send"
              (Printf.sprintf
                 "%s outside lib/machine; send through Cm_machine.Transport (typed \
                  endpoints) instead"
                 canon);
          if printing canon then
            add ~line ~rule:"printf"
              (Printf.sprintf
                 "%s prints from library code; route through the report layer"
                 canon);
          if
            canon = "compare"
            && poly_compare_applies file
            && not (Hashtbl.mem applied_heads e.exp_loc.loc_start.Lexing.pos_cnum)
          then
            add ~line ~rule:"poly-compare"
              "polymorphic compare used as a comparison-function value; use Int.compare \
               / String.compare or a monomorphic comparator")
        | Texp_apply (head, args) -> (
          Hashtbl.replace applied_heads head.exp_loc.loc_start.Lexing.pos_cnum ();
          match head.exp_desc with
          | Texp_ident (p, _, _) -> (
            let canon = Cmt_index.canon_path ui p in
            if canon = "Hashtbl.create" && hashtbl_create_random args then
              add ~line ~rule:"determinism"
                "Hashtbl.create ~random makes iteration order per-process";
            if compare_op canon then
              let closure_arg =
                List.exists
                  (fun ((_ : Asttypes.arg_label), (a : Typedtree.expression option)) ->
                    match a with
                    | Some a -> contains_arrow idx a.exp_type
                    | None -> false)
                  args
              in
              if closure_arg then
                add ~line ~rule:"closure-compare"
                  (Printf.sprintf
                     "structural %s on a value whose type contains a function \
                      (continuations raise under polymorphic comparison)"
                     canon))
          | _ -> ())
        | _ -> ());
        Tast_iterator.default_iterator.expr sub e
      in
      let iter = { Tast_iterator.default_iterator with expr } in
      iter.structure iter ui.ui_structure)
    idx.units;
  !findings
