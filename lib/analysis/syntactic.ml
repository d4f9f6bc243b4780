(* The fast, syntactic (parsetree) pass: parses .ml sources with
   compiler-libs and pattern-matches identifiers as written.

   These rules run before the typed passes as a cheap tripwire — they
   need no build artifacts and catch the common spelling of each hazard.
   They are *not* alias-proof: `module N = Network let f = N.send` hides
   the ident from them.  The typed pass ([Typed_rules], over .cmt files)
   re-runs the identifier rules on resolved paths and closes that hole;
   duplicate findings are merged by (file, line, rule) in the driver.

   Rules: determinism, hashtbl-order, closure-compare, printf,
   poly-compare, raw-send, global-state — see bin/lint.ml's header for
   the rationale of each. *)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  m = 0 || go 0

let strip_stdlib = function ("Stdlib" | "Pervasives") :: rest -> rest | path -> path

let ident_path e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } ->
    (try Some (strip_stdlib (Longident.flatten txt)) with Misc.Fatal_error -> None)
  | _ -> None

let forbidden_ident = function
  | "Random" :: _ -> Some "use of Random.* (route randomness through Cm_engine.Rng)"
  | [ "Sys"; "time" ] -> Some "Sys.time is wall-clock dependent (use the Sim clock)"
  | "Unix" :: _ -> Some "use of Unix.* (real-world I/O and time break determinism)"
  | [ "Hashtbl"; "randomize" ] -> Some "Hashtbl.randomize makes iteration order per-process"
  | _ -> None

let order_sensitive_ident = function
  | [ "Hashtbl"; ("iter" | "fold") ] -> true
  | _ -> false

let printing_ident = function
  | [ "Printf"; "printf" ]
  | [ "Format"; "printf" ]
  | [ ("print_string" | "print_endline" | "print_newline" | "print_int" | "print_char"
      | "print_float") ] ->
    true
  | _ -> false

(* Identifiers that conventionally hold continuations/closures in this
   codebase; structural comparison on them raises at runtime.  "k" is
   deliberately absent — it names both continuations (CPS internals) and
   integer keys (B-tree, DHT), and the latter dominate comparisons. *)
let closure_names = [ "cont"; "continuation"; "resume"; "action"; "thunk"; "callback" ]

let rec last = function [] -> "" | [ x ] -> x | _ :: tl -> last tl

let closure_suspect (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_ident { txt = Lident n; _ } -> List.mem n closure_names
  | Pexp_field (_, { txt; _ }) ->
    (try List.mem (last (Longident.flatten txt)) closure_names
     with Misc.Fatal_error -> false)
  | _ -> false

let polymorphic_compare = function [ ("=" | "<>" | "compare") ] -> true | _ -> false

let raw_send_ident = function
  | [ "Network"; ("send" | "send_k") ] | [ "Cm_machine"; "Network"; ("send" | "send_k") ] -> true
  | _ -> false

(* The transport itself (and the machine layer it lives in) is the one
   legitimate client of the raw network send. *)
let raw_send_applies file = not (contains file "lib/machine")

(* poly-compare is scoped to the simulation hot-path libraries (plus the
   negative fixture, which must exercise every rule). *)
let poly_compare_scope = [ "lib/engine"; "lib/machine"; "lib/memory"; "fixtures" ]

let poly_compare_applies file = List.exists (contains file) poly_compare_scope

let hashtbl_create_random args =
  List.exists
    (fun (label, (arg : Parsetree.expression)) ->
      match (label, arg.pexp_desc) with
      | ( (Asttypes.Labelled "random" | Asttypes.Optional "random"),
          Pexp_construct ({ txt = Lident "false"; _ }, None ) ) ->
        false
      | (Asttypes.Labelled "random" | Asttypes.Optional "random"), _ -> true
      | _ -> false)
    args

(* --- global-state: toplevel mutable state in library modules.  A
   separate walk from the expression iterator: only bindings at module
   toplevel (including nested/included module structures) are flagged —
   a `ref` inside a function body or a functor (fresh per application)
   is per-call state and fine.  The typed domain-safety pass goes
   further (captures, cross-module escape, ownership classes); this
   stays as the zero-build-dependency tripwire. *)

let rec peel_constraint (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e', _) | Pexp_coerce (e', _, _) -> peel_constraint e'
  | _ -> e

let global_state_ctor e =
  match (peel_constraint e).Parsetree.pexp_desc with
  | Pexp_apply (fn, _) -> (
    match ident_path fn with
    | Some [ "ref" ] -> Some "ref"
    | Some [ "Hashtbl"; "create" ] -> Some "Hashtbl.create"
    | Some [ "Atomic"; "make" ] -> Some "Atomic.make"
    | _ -> None)
  | _ -> None

type state = { file : string; mutable acc : Finding.t list; applied_heads : (int, unit) Hashtbl.t }

let report st ~line ~rule msg =
  st.acc <- Finding.v ~file:st.file ~line ~rule msg :: st.acc

let rec check_structure st (items : Parsetree.structure) =
  List.iter
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, bindings) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            match global_state_ctor vb.pvb_expr with
            | Some ctor ->
              let line = vb.pvb_expr.pexp_loc.Location.loc_start.Lexing.pos_lnum in
              report st ~line ~rule:"global-state"
                (Printf.sprintf
                   "toplevel %s is mutable state shared across domains and runs; move it \
                    into the machine/runtime instance or Domain.DLS, or vet it as an \
                    Atomic with an allow comment"
                   ctor)
            | None -> ())
          bindings
      | Pstr_module { pmb_expr; _ } -> check_module_expr st pmb_expr
      | Pstr_recmodule mbs ->
        List.iter
          (fun (mb : Parsetree.module_binding) -> check_module_expr st mb.pmb_expr)
          mbs
      | Pstr_include { pincl_mod; _ } -> check_module_expr st pincl_mod
      | _ -> ())
    items

and check_module_expr st (m : Parsetree.module_expr) =
  match m.pmod_desc with
  | Pmod_structure items -> check_structure st items
  | Pmod_constraint (m', _) -> check_module_expr st m'
  | _ -> ()

let check_expr st (e : Parsetree.expression) =
  let line = e.pexp_loc.Location.loc_start.Lexing.pos_lnum in
  let file = st.file in
  (match ident_path e with
  | Some path -> (
    (match forbidden_ident path with
    | Some msg -> report st ~line ~rule:"determinism" msg
    | None -> ());
    if order_sensitive_ident path then
      report st ~line ~rule:"hashtbl-order"
        (Printf.sprintf
           "%s iterates in unspecified order; sort the result or justify with an allow \
            comment"
           (String.concat "." path));
    if raw_send_ident path && raw_send_applies file then
      report st ~line ~rule:"raw-send"
        (Printf.sprintf
           "%s outside lib/machine; send through Cm_machine.Transport (typed endpoints) \
            instead"
           (String.concat "." path));
    if printing_ident path then
      report st ~line ~rule:"printf"
        (Printf.sprintf "%s prints from library code; route through the report layer"
           (String.concat "." path));
    if
      path = [ "compare" ]
      && poly_compare_applies file
      && not (Hashtbl.mem st.applied_heads e.pexp_loc.Location.loc_start.Lexing.pos_cnum)
    then
      report st ~line ~rule:"poly-compare"
        "polymorphic compare used as a comparison-function value; use Int.compare / \
         String.compare or a monomorphic comparator")
  | None -> ());
  match e.pexp_desc with
  | Pexp_apply (fn, args) -> (
    Hashtbl.replace st.applied_heads fn.Parsetree.pexp_loc.Location.loc_start.Lexing.pos_cnum ();
    (match ident_path fn with
    | Some [ "Hashtbl"; "create" ] when hashtbl_create_random args ->
      report st ~line ~rule:"determinism"
        "Hashtbl.create ~random makes iteration order per-process"
    | Some op when polymorphic_compare op ->
      if List.exists (fun (_, a) -> closure_suspect a) args then
        report st ~line ~rule:"closure-compare"
          (Printf.sprintf
             "structural %s on a value that looks like a closure (continuations raise \
              under polymorphic comparison)"
             (String.concat "." op))
    | _ -> ()))
  | _ -> ()

exception Parse_error of string * string

(* [lint_file file] is the raw (unsuppressed) findings of one source
   file; raises [Parse_error] when the file does not parse. *)
let lint_file file =
  let st = { file; acc = []; applied_heads = Hashtbl.create 256 } in
  let ast =
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let lexbuf = Lexing.from_channel ic in
        Location.init lexbuf file;
        try Parse.implementation lexbuf
        with exn -> raise (Parse_error (file, Printexc.to_string exn)))
  in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          check_expr st e;
          Ast_iterator.default_iterator.expr self e);
    }
  in
  iter.structure iter ast;
  check_structure st ast;
  st.acc
