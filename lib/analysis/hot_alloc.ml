(* Hot-path allocation pass.

   The zero-allocation hot paths (DESIGN.md §14, "Pass: hot-alloc")
   need an *enforced floor*, not a one-off audit: once a hot function
   is allocation-free, CI must fail when an allocation site reappears.
   This pass walks the declared hot-path set and reports every
   allocation the Typedtree shows:

     closure        a [fun]/[function] nested inside a hot body (the
                    outermost curried chain of the definition itself is
                    the function being defined, not a per-call
                    allocation, and is skipped)
     partial-apply  an application supplying fewer arguments than the
                    callee's arrow arity — the runtime builds a closure
     tuple          tuple construction
     record         record construction
     variant        constructor application with arguments (includes
                    list cons and [Some])
     array          array literals
     boxed-float    a float component stored into a tuple or a
                    mixed-representation record (each such store boxes)
     boxed-return   a hot function returning [float], [int64], [int32]
                    or [nativeint] that is not [@inline]: each call
                    that is not inlined boxes its result
     ref            a [ref] cell the compiler cannot keep in a register:
                    one not let-bound, or whose variable is used other
                    than under [!], [:=], [incr] and [decr], or inside a
                    nested closure

   A *builder* is a function run once per [create] that returns the
   closures a hot path then calls (a method site's frame body).  What it
   builds — the closures it makes outside any other closure, and the
   code around them — is not a finding; the bodies of those closures
   are checked as hot.

   The pass is deliberately conservative-by-list: it only looks inside
   bindings named by the hot set.  Every finding fails the run; an
   allocation a hot path needs carries an allow comment saying why. *)

let rule = "hot-alloc"

type spec = {
  s_unit : string;  (* canonical unit, e.g. "Cm_engine.Sim" *)
  s_names : string list;  (* toplevel binding names within it *)
  s_builders : string list;  (* toplevel builders whose built closures are hot *)
}

(* The declared hot-path set: the event core's schedule/extract/fire
   cycle, the transport's send/receive pipelines, the CPS thread
   combinators (continuation resume), and the processor dispatch loop.
   Growing this list is how a function joins the zero-allocation
   floor. *)
let default =
  [
    {
      s_unit = "Cm_engine.Sim";
      s_names =
        [ "alloc"; "schedule"; "extract"; "fire"; "post"; "post_after"; "timer"; "cancel";
          "ovf_push"; "ovf_pop"; "ovf_sift_up"; "ovf_sift_down"; "prune_ovf" ];
      s_builders = [];
    };
    {
      s_unit = "Cm_machine.Transport";
      s_names =
        [ "dispatch"; "post"; "call"; "migrate"; "launch"; "signal_app"; "inject";
          "fault_spec"; "fault_hits"; "post_frame"; "send_faulty"; "send_pooled";
          "af_release"; "af_arrive"; "delay_step" ];
      s_builders = [];
    };
    (* The steady-state call path walks frame steps, not the generic
       [bind]/[map] combinators, so those are not in the set; neither is
       [arm], whose one closure per [await]/[stall]/[Frame.resume]
       carries the suspension's generation by design.  What is hot is
       the frame machinery itself: the travel steps, firing a
       resumption, the m-lane register accessors the fused method sites
       write through, the int stack the B-tree insert keeps its path on
       (its out-of-line [grow_stack] allocates by design and is absent),
       and context recycling — every RPC's server thread
       exits into [recycle] and the next one is spawned through
       [reuse]. *)
    {
      s_unit = "Cm_machine.Thread";
      s_names =
        [ "return"; "travel_k"; "frame_travel"; "yield"; "sleep"; "compute";
          "fire"; "recycle"; "reuse";
          "setm0"; "setm1"; "setm2"; "setm3"; "setm4";
          "getm0"; "getm1"; "getm2"; "getm3"; "getm4";
          "set_mlane"; "setms"; "getms"; "setmv"; "getmv"; "push"; "pop"; "top"; "depth" ];
      s_builders = [];
    };
    { s_unit = "Cm_machine.Processor";
      s_names = [ "run_head"; "dispatch"; "enqueue"; "release"; "hold"; "charge" ];
      s_builders = [] };
    (* Every message's latency: the uncontended path computes hops from
       the topology's coordinate arrays per send, with no table behind
       it, so a tuple or a boxed raiser here costs every message. *)
    { s_unit = "Cm_machine.Topology"; s_names = [ "hops"; "check" ]; s_builders = [] };
    { s_unit = "Cm_machine.Network"; s_names = [ "accounted_latency"; "post_k"; "send_k" ];
      s_builders = [] };
    (* The flat object space: home/state lookups and moves sit on every
       remote access's fast path, and at 10^6 objects any per-lookup box
       (a tuple key, a sprintf on the success path) is a regression the
       pass must catch. *)
    { s_unit = "Cm_runtime.Objspace"; s_names = [ "check"; "home"; "state"; "move" ];
      s_builders = [] };
    (* The flat DHT buckets' scan/write primitives, likewise: every
       get/put/preload crosses them, and test_flatstore's zero-word
       overwrite floor depends on their staying allocation-free.
       [bkt_grow], the out-of-line growth [bkt_append] calls when a
       bucket's array is full, allocates by design and is absent.  The
       get and put method sites' frame bodies are built once per table;
       every get and put runs them.  [sum_frame_body] (range scans)
       stays out. *)
    { s_unit = "Cm_apps.Dht";
      s_names = [ "bkt_count"; "bkt_find"; "bkt_find_from"; "bkt_value"; "bkt_set";
                  "bkt_append"; "ms_bucket" ];
      s_builders = [ "get_frame_body"; "put_frame_body" ] };
    (* The counting network's balancer and counter visits, one per stage
       of every token's traversal. *)
    { s_unit = "Cm_apps.Counting_network"; s_names = [];
      s_builders = [ "bal_frame_body"; "cnt_frame_body" ] };
    (* The social graph's reads: every walk hop reads a degree from the
       32-bit offsets and computes a friend (one Zipf draw at a counter
       position, no stored edge), and every visit reads its degree
       again.  [get32] returns an [int32], so the boxed-return check
       holds it to [@inline]. *)
    { s_unit = "Cm_apps.Social_graph";
      s_names = [ "get32"; "read"; "deg"; "degree"; "friend"; "visit" ];
      s_builders = [ "visit_frame_body" ] };
    (* The call path: the one RPC issue step [rpc_call], the one return
       step [return_home], and the fused per-object method-site steps,
       the RPC server stub [msite_serve] and the tail re-entry
       [msite_next] included, walk frame registers only — every binding
       here must stay allocation-free. *)
    {
      s_unit = "Cm_runtime.Runtime";
      s_names =
        [ "rpc_call"; "return_home"; "rt_body_step"; "rt_call_step"; "scope_done_step";
          "msite_obj"; "msite_arg_a"; "msite_arg_b"; "msite_arrived_step"; "msite_send_step";
          "msite_serve"; "msite_call_step"; "msite_enter"; "msite_next"; "msite_finish";
          "msite_call"; "msite_scoped" ];
      s_builders = [];
    };
    (* The B-tree descents on method-site frames: every lookup and insert
       walks these steps.  Two suppressions, each with its reason:
       [hand_off] into monadic split propagation (splits and root
       refreshes only) and the RPC return step [rpc_return].  The
       entries [lookup]/[insert] stay out: with a replicated root they
       bind the snapshot read monadically. *)
    {
      s_unit = "Cm_apps.Btree_msg";
      s_names =
        [ "visit_next"; "lookup_at"; "unwind"; "hand_off"; "rpc_return"; "park_rpc_return";
          "insert_next"; "leaf_done"; "insert_at"; "leaf_inserted_at"; "lookup_from";
          "insert_from"; "settled" ];
      s_builders = [];
    };
    {
      s_unit = "Cm_runtime.Objmig";
      s_names =
        [ "om_done_step"; "om_reply_step"; "om_resume_step"; "om_send_step";
          "om_call_step"; "call"; "rs_alloc"; "rs_release"; "hint_key"; "learn" ];
      s_builders = [];
    };
    {
      s_unit = "Cm_runtime.Replicate";
      s_names =
        [ "upd_fan_step"; "upd_body_run"; "upd_serve"; "issue"; "load_lane";
          "read_home_step"; "read_copy_step"; "read"; "update";
          "scr_alloc"; "scr_release"; "scr_scan"; "holds"; "install" ];
      s_builders = [];
    };
    (* The per-op samplers every scale workload draws from: a boxed draw
       here taxes each operation, and the social graph's counter-form
       draws ([bits53_at], [sample_bits]) run on every walk hop.
       [Rng.mix] and [Rng.step] return an [int64] and [Rng.float] a
       [float], so the boxed-return check holds them to [@inline].
       Whether the compiler honours the attribute across modules (it
       cannot under [-opaque], which the repository's release profile
       leaves out) is beyond this pass; the engine tests count the minor
       words each sampler allocates. *)
    { s_unit = "Cm_engine.Rng";
      s_names =
        [ "set_state"; "mix"; "step"; "int"; "bits53"; "bits53_at"; "float"; "bool";
          "split_into" ];
      s_builders = [] };
    { s_unit = "Cm_engine.Zipf"; s_names = [ "sample_bits"; "sample" ]; s_builders = [] };
    (* The counter-handle updates behind every message, dispatch and
       coherence event.  The string API's [add]/[incr] create a cell on
       a miss and stay out. *)
    { s_unit = "Cm_engine.Stats"; s_names = [ "counter_add"; "counter_incr" ];
      s_builders = [] };
  ]

let declared names specs (b : Cmt_index.binding) (ui : Cmt_index.unit_info) =
  List.exists (fun s -> s.s_unit = ui.ui_canon && List.mem b.b_name (names s)) specs

let in_hot_set = declared (fun s -> s.s_names @ s.s_builders)
let is_builder = declared (fun s -> s.s_builders)

(* A hot-set name with no binding behind it (deleted or renamed) would
   silently leave the zero-allocation floor, so it is a finding: one per
   unit, at line 0, listing the stale names.  A unit absent from the
   index is stale only when its library was indexed (a sibling unit is
   loaded) — linting part of the tree does not flag the rest of the set;
   the finding then points where the unit's source would be. *)
let stale_names (idx : Cmt_index.t) specs =
  (* "Cm_engine.Sim" -> ("Cm_engine", "Sim") *)
  let split u =
    match String.rindex_opt u '.' with
    | Some i -> (String.sub u 0 i, String.sub u (i + 1) (String.length u - i - 1))
    | None -> ("", u)
  in
  List.filter_map
    (fun s ->
      let stale file names what =
        if names = [] then None
        else
          Some
            (Finding.v ~file ~line:0 ~rule ~context:s.s_unit ~detail:"stale-name"
               (Printf.sprintf "hot set names %s in %s, which %s; remove or rename the entry"
                  (String.concat ", " names) s.s_unit what))
      in
      match List.find_opt (fun (ui : Cmt_index.unit_info) -> ui.ui_canon = s.s_unit) idx.units with
      | Some ui ->
        let bound name =
          List.exists (fun (b : Cmt_index.binding) -> b.b_name = name) ui.ui_bindings
        in
        stale ui.ui_source
          (List.filter (fun n -> not (bound n)) (s.s_names @ s.s_builders))
          "has no such binding"
      | None -> (
        let lib, base = split s.s_unit in
        match
          List.find_opt
            (fun (ui : Cmt_index.unit_info) -> lib <> "" && fst (split ui.ui_canon) = lib)
            idx.units
        with
        | None -> None
        | Some sibling ->
          let file =
            Filename.concat (Filename.dirname sibling.ui_source)
              (String.uncapitalize_ascii base ^ ".ml")
          in
          stale file (s.s_names @ s.s_builders) "is not a unit of its library"))
    specs

let is_float ty =
  match Types.get_desc ty with
  | Tconstr (p, [], _) -> Cmt_index.strip_stdlib (Path.name p) = "float"
  | _ -> false

(* Unboxed-number types: a function returning one boxes the result
   unless the call is inlined into a caller that consumes it unboxed. *)
let is_boxed_number ty =
  match Types.get_desc ty with
  | Tconstr (p, [], _) -> (
    match Cmt_index.strip_stdlib (Path.name p) with
    | "float" | "Float.t" | "int64" | "Int64.t" | "int32" | "Int32.t" | "nativeint"
    | "Nativeint.t" ->
      true
    | _ -> false)
  | _ -> false

(* [@inline] or [@inline always] on the binding or on its [fun];
   [@inline never] does not count. *)
let marked_inline (vb : Typedtree.value_binding) =
  let inline (a : Parsetree.attribute) =
    (a.attr_name.txt = "inline" || a.attr_name.txt = "ocaml.inline")
    &&
    match a.attr_payload with
    | PStr [] -> true
    | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> (
      match e.pexp_desc with Pexp_ident { txt = Lident "always"; _ } -> true | _ -> false)
    | _ -> false
  in
  List.exists inline vb.vb_attributes || List.exists inline vb.vb_expr.exp_attributes

(* Subtrees that never run on the hot path proper: raising an error ends
   the run, so its argument's allocations do not count toward the
   zero-allocation floor. *)
let raising_head = function
  | "raise" | "raise_notrace" | "failwith" | "invalid_arg" -> true
  | _ -> false

(* Constant constructor trees the compiler statically allocates — format
   strings desugar to CamlinternalFormatBasics constructors. *)
let static_constructor (cd : Types.constructor_description) =
  match Types.get_desc cd.cstr_res with
  | Tconstr (p, _, _) ->
    let n = Path.name p in
    String.length n >= 14 && String.sub n 0 14 = "CamlinternalFo"
  | _ -> false

(* Runtime (syntactic) arity of an expression: the length of its outer
   curried [fun] chain — what the compiler turns into one n-ary closure,
   and therefore what decides whether an application is partial *at run
   time*.  The type-level arity over-counts whenever a function returns
   a function on purpose: [Frame.take_k c] or [Array.get handlers hid]
   fully apply a 1-or-2-ary callee and merely *read out* an existing
   closure, yet their result types end in arrows. *)
let rec syn_arity (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases = [ c ]; _ } -> 1 + syn_arity c.c_rhs
  | Texp_function _ -> 1
  | _ -> 0

(* Runtime arities for stdlib heads whose instantiated types commonly
   end in arrows (no .cmt of theirs is in the index to read the
   definition from): indexing a function array and the [Obj] casts are
   full applications, not closure builders. *)
let stdlib_arity = function
  | "Array.get" | "Array.unsafe_get" -> Some 2
  | "Obj.magic" | "Obj.repr" | "Obj.obj" -> Some 1
  | _ -> None

(* Arrow arity of a type, expanding abbreviations through the index's
   type-declaration table ([unit Thread.t] is an arrow twice over). *)
let arity idx ty =
  let rec go depth ty =
    if depth > 24 then 0
    else
      match Types.get_desc ty with
      | Tarrow (_, _, rest, _) -> 1 + go (depth + 1) rest
      | Tconstr (p, _, _) -> (
        match Hashtbl.find_opt idx.Cmt_index.type_decls (Cmt_index.strip_stdlib (Path.name p)) with
        | Some { Types.type_manifest = Some t; _ } -> go (depth + 1) t
        | _ -> 0)
      | Tpoly (t, _) -> go (depth + 1) t
      | _ -> 0
  in
  go 0 ty

(* Positions of the [ref] cells in [e] the compiler keeps in a
   register: [let x = ref v in body] where [body] names [x] only as the
   direct operand of [!], [:=], [incr] or [decr], and not inside a
   closure. *)
let register_refs ui (e : Typedtree.expression) =
  let heads names (f : Typedtree.expression) =
    match f.exp_desc with
    | Texp_ident (p, _, _) -> List.mem (Cmt_index.canon_path ui p) names
    | _ -> false
  in
  let only_through_ops id body =
    let ok = ref true and depth = ref 0 in
    let is_id (a : Typedtree.expression) =
      match a.exp_desc with Texp_ident (Path.Pident i, _, _) -> Ident.same i id | _ -> false
    in
    let expr sub (e : Typedtree.expression) =
      match e.exp_desc with
      | Texp_apply (f, (_, Some a) :: rest) when heads [ "!"; ":="; "incr"; "decr" ] f && is_id a ->
        if !depth > 0 then ok := false;
        List.iter (fun (_, a) -> Option.iter (sub.Tast_iterator.expr sub) a) rest
      | Texp_ident _ when is_id e -> ok := false
      | Texp_function _ ->
        incr depth;
        Tast_iterator.default_iterator.expr sub e;
        decr depth
      | _ -> Tast_iterator.default_iterator.expr sub e
    in
    let iter = { Tast_iterator.default_iterator with expr } in
    iter.expr iter body;
    !ok
  in
  let found = Hashtbl.create 4 in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_let (_, vbs, body) ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
          | Tpat_var (id, _), Texp_apply (f, [ _ ]) when heads [ "ref" ] f && only_through_ops id body
            ->
            Hashtbl.replace found vb.vb_expr.exp_loc.loc_start.Lexing.pos_cnum ()
          | _ -> ())
        vbs
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  iter.expr iter e;
  found

let run (idx : Cmt_index.t) ?(hot = default) () =
  let findings = ref [] in
  let add ~ui ~(b : Cmt_index.binding) ~loc ~kind msg =
    findings :=
      Finding.v ~file:ui.Cmt_index.ui_source ~line:(Cmt_index.line_of loc) ~rule
        ~context:b.b_canon ~detail:kind ~witness:[ b.b_canon ]
        (Printf.sprintf "%s in hot path %s: %s" kind b.b_canon msg)
      :: !findings
  in
  List.iter
    (fun (ui : Cmt_index.unit_info) ->
      List.iter
        (fun (b : Cmt_index.binding) ->
          if in_hot_set hot b ui then begin
            (* Positions of function nodes that belong to a curried
               chain already accounted for (or to the definition's own
               outer chain): visited parent-first, so membership is
               decided before the child is reached. *)
            let chain : (int, unit) Hashtbl.t = Hashtbl.create 16 in
            let mark (e : Typedtree.expression) =
              Hashtbl.replace chain e.exp_loc.loc_start.Lexing.pos_cnum ()
            in
            let in_chain (e : Typedtree.expression) =
              Hashtbl.mem chain e.exp_loc.loc_start.Lexing.pos_cnum
            in
            mark b.b_vb.vb_expr;
            let in_register = register_refs ui b.b_vb.vb_expr in
            (* Closures entered below the definition's own chain; in a
               builder, code at depth 0 runs once per [create]. *)
            let builder = is_builder hot b ui and depth = ref 0 in
            let skip (e : Typedtree.expression) =
              match e.exp_desc with
              | Texp_assert _ -> true
              | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
                raising_head (Cmt_index.canon_path ui p)
              | _ -> false
            in
            let expr sub (e : Typedtree.expression) =
              if skip e then ()
              else begin
              let opens =
                match e.exp_desc with
                | Texp_function { cases; _ } ->
                  List.iter
                    (fun (c : Typedtree.value Typedtree.case) ->
                      match c.c_rhs.exp_desc with
                      | Texp_function _ -> mark c.c_rhs
                      | _ -> ())
                    cases;
                  not (in_chain e)
                | _ -> false
              in
              if not (builder && !depth = 0) then
              (match e.exp_desc with
              | Texp_function _ ->
                if opens then
                  add ~ui ~b ~loc:e.exp_loc ~kind:"closure"
                    "closure allocated per call; hoist it or defunctionalize (pooled \
                     frames, Sim handler ids)"
              | Texp_tuple parts ->
                add ~ui ~b ~loc:e.exp_loc ~kind:"tuple" "tuple allocated per call";
                List.iter
                  (fun (p : Typedtree.expression) ->
                    if is_float p.exp_type then
                      add ~ui ~b ~loc:e.exp_loc ~kind:"boxed-float"
                        "float stored in a tuple is boxed")
                  parts
              | Texp_record { representation; fields; _ } ->
                add ~ui ~b ~loc:e.exp_loc ~kind:"record" "record allocated per call";
                let flat =
                  match representation with Types.Record_float -> true | _ -> false
                in
                if not flat then
                  Array.iter
                    (fun ((ld : Types.label_description), _) ->
                      if is_float ld.lbl_arg then
                        add ~ui ~b ~loc:e.exp_loc ~kind:"boxed-float"
                          (Printf.sprintf "float field '%s' is boxed in a mixed record"
                             ld.lbl_name))
                    fields
              | Texp_construct (_, cd, (_ :: _ as _args)) ->
                if not (static_constructor cd) then
                  add ~ui ~b ~loc:e.exp_loc ~kind:"variant"
                    (Printf.sprintf "constructor %s allocated per call" cd.cstr_name)
              | Texp_array (_ :: _) ->
                add ~ui ~b ~loc:e.exp_loc ~kind:"array" "array literal allocated per call"
              | Texp_apply (head, args) ->
                (match head.exp_desc with
                | Texp_ident (p, _, _)
                  when Cmt_index.canon_path ui p = "ref"
                       && not (Hashtbl.mem in_register e.exp_loc.loc_start.Lexing.pos_cnum) ->
                  add ~ui ~b ~loc:e.exp_loc ~kind:"ref"
                    "ref cell allocated per call; a let-bound ref used only through \
                     !, :=, incr and decr, outside closures, stays in a register"
                | _ -> ());
                let supplied =
                  List.length (List.filter (fun (_, a) -> a <> None) args)
                in
                let ar =
                  match head.exp_desc with
                  | Texp_ident (p, _, _) -> (
                    let canon = Cmt_index.canon_path ui p in
                    match stdlib_arity (Cmt_index.strip_stdlib canon) with
                    | Some n -> n
                    | None -> (
                      (* A same-unit reference resolves to its bare
                         name; the index keys on the dotted path. *)
                      let lookup c = Hashtbl.find_opt idx.Cmt_index.by_canon c in
                      let hit =
                        match lookup canon with
                        | Some _ as h -> h
                        | None -> lookup (ui.Cmt_index.ui_canon ^ "." ^ canon)
                      in
                      match hit with
                      | Some (callee, _) ->
                        let n = syn_arity callee.Cmt_index.b_vb.vb_expr in
                        if n > 0 then n else arity idx head.exp_type
                      | None -> arity idx head.exp_type))
                  | _ -> arity idx head.exp_type
                in
                if ar > supplied then
                  add ~ui ~b ~loc:e.exp_loc ~kind:"partial-apply"
                    (Printf.sprintf
                       "partial application (%d of %d arguments) builds a closure per call"
                       supplied ar)
              | _ -> ());
              if opens then incr depth;
              Tast_iterator.default_iterator.expr sub e;
              if opens then decr depth
              end
            in
            let iter = { Tast_iterator.default_iterator with expr } in
            iter.expr iter b.b_vb.vb_expr;
            let rec result n ty =
              match Types.get_desc ty with
              | Tarrow (_, _, rest, _) when n > 0 -> result (n - 1) rest
              | Tpoly (t, _) -> result n t
              | _ -> if n = 0 then Some ty else None
            in
            let n = syn_arity b.b_vb.vb_expr in
            match if n > 0 then result n b.b_vb.vb_expr.exp_type else None with
            | Some ty when is_boxed_number ty && not (marked_inline b.b_vb) ->
              add ~ui ~b ~loc:b.b_loc ~kind:"boxed-return"
                (Printf.sprintf
                   "returns %s, boxed at every call that is not inlined; mark it [@inline]"
                   (Format.asprintf "%a" Printtyp.type_expr ty))
            | _ -> ()
          end)
        ui.ui_bindings)
    idx.units;
  stale_names idx hot @ !findings
