(* Domain-safety (shard-escape) pass.

   The sweep pool ([repro -j N]) runs machines on several domains at
   once; that is only sound if every mutable location in the libraries
   is owned by one machine, domain-local (DLS), atomic, or explicitly
   synchronized.  This pass classifies every mutable location it can see
   in the .cmt files and flags the ones that escape:

   1. *Module-init-time mutable state.*  A toplevel binding whose
      right-hand side allocates mutable state when the module is
      initialised ([ref _], [Hashtbl.create], [Array.make], array
      literals, records with mutable fields, [lazy] blocks, ...) is one
      location shared by every domain that touches the unit.  The walk
      does not descend into function bodies — [let f () = ref 0] is
      per-call state — but does see through [let]:
      [let t = Hashtbl.create 8 in fun () -> ...] allocates the table
      once and captures it.  Ownership classes:
        - [Atomic.make]          -> atomic        (reported under the
                                                   global-state rule: each
                                                   one needs an allow comment)
        - [Domain.DLS.new_key]   -> dls           (safe)
        - [Mutex.create] etc.    -> sync          (safe: a lock is *for*
                                                   sharing)
        - record carrying its own Mutex.t/Atomic.t
                                 -> mutex-guarded (safe by convention)
        - everything else        -> escaping      (finding)

   2. *Cross-module escape.*  A binding in unit A that (transitively)
      reaches an unvetted escaping root in unit B re-exposes that state
      to every caller — the classic "hashtable behind a getter".  The
      reachability walk runs over the whole-library reference graph and
      the finding carries the call-chain witness.

   Escape: a root suppressed with "(* lint: allow domain-safety — why *)"
   on its line or the line above is vetted (the driver's [vetted]
   predicate folds comment suppressions in; an empty justification is
   itself a finding). *)

let rule = "domain-safety"

type cls = Shared of string | Atomic | Dls | Sync | Guarded of string

let creation_ctor canon =
  match canon with
  | "ref" -> Some (Shared "ref")
  | "Hashtbl.create" | "Queue.create" | "Stack.create" | "Buffer.create" | "Bytes.create"
  | "Bytes.make" | "Array.make" | "Array.init" | "Array.create_float" | "Array.copy"
  | "Array.of_list" | "Array.append" | "Weak.create" | "Dynarray.create" ->
    Some (Shared canon)
  | "Atomic.make" -> Some Atomic
  | "Domain.DLS.new_key" -> Some Dls
  | "Mutex.create" | "Semaphore.Counting.make" | "Semaphore.Binary.make" | "Condition.create"
    ->
    Some Sync
  | _ -> None

let head_canon idx ui (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, vd) -> Cmt_index.resolve idx ui p vd |> Option.value ~default:(Cmt_index.canon_path ui p) |> Option.some
  | _ -> None

(* Does this type name a synchronization primitive? (for the
   mutex-guarded record heuristic) *)
let is_sync_type ty =
  match Types.get_desc ty with
  | Tconstr (p, _, _) -> (
    match Cmt_index.strip_stdlib (Path.name p) with
    | "Mutex.t" | "Atomic.t" | "Semaphore.Counting.t" | "Semaphore.Binary.t" | "Condition.t"
      ->
      true
    | _ -> false)
  | _ -> false

(* Classify one expression node as a mutable-state creation, or not. *)
let creation idx ui (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply (head, _) -> (
    match head_canon idx ui head with
    | Some c -> creation_ctor c
    | None -> None)
  | Texp_array (_ :: _) -> Some (Shared "array literal")
  | Texp_lazy _ -> Some (Shared "lazy (forcing races across domains)")
  | Texp_record { fields; _ } ->
    let mutable_field = ref None and guarded = ref false in
    Array.iter
      (fun ((ld : Types.label_description), _) ->
        (match ld.lbl_mut with
        | Mutable -> if !mutable_field = None then mutable_field := Some ld.lbl_name
        | Immutable -> ());
        if is_sync_type ld.lbl_arg then guarded := true)
      fields;
    (match !mutable_field with
    | Some f when !guarded -> Some (Guarded f)
    | Some f -> Some (Shared (Printf.sprintf "record with mutable field '%s'" f))
    | None -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The pass                                                           *)
(* ------------------------------------------------------------------ *)

type result = {
  findings : Finding.t list;
  (* every classified module-init-time mutable location, for lint.json
     consumers and the tests: (canonical binding, class string) *)
  classified : (string * string) list;
}

let class_name = function
  | Shared _ -> "escaping"
  | Atomic -> "atomic"
  | Dls -> "dls"
  | Sync -> "sync"
  | Guarded _ -> "mutex-guarded"

(* Collect the module-init-time creations of one toplevel binding: walk
   the RHS without entering function bodies. *)
let init_creations idx ui (vb : Typedtree.value_binding) =
  let acc = ref [] in
  let expr sub (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_function _ -> ()  (* deferred to call time: per-call state *)
    | _ ->
      (match creation idx ui e with
      | Some cls -> acc := (e.exp_loc, cls) :: !acc
      | None -> ());
      Tast_iterator.default_iterator.expr sub e
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  iter.expr iter vb.vb_expr;
  List.rev !acc

(* [run idx ~vetted] analyzes every indexed unit.  [vetted ~file ~line]
   tells the pass a location is justified by a source comment (the
   driver wires this to [Suppress]), so vetted roots neither produce
   findings nor taint the escape graph. *)
let run (idx : Cmt_index.t) ~vetted =
  let findings = ref [] and classified = ref [] in
  let add f = findings := f :: !findings in
  (* escaping, unvetted roots: canonical -> (unit, loc, ctor) *)
  let roots : (string, Cmt_index.unit_info * Location.t * string) Hashtbl.t =
    Hashtbl.create 32
  in
  (* Pass 1: module-init-time state and the root set. *)
  List.iter
    (fun (ui : Cmt_index.unit_info) ->
      List.iter
        (fun (b : Cmt_index.binding) ->
          List.iter
            (fun ((loc : Location.t), cls) ->
              let line = Cmt_index.line_of loc in
              classified := (b.b_canon, class_name cls) :: !classified;
              match cls with
              | Dls | Sync | Guarded _ -> ()
              | Atomic ->
                add
                  (Finding.v ~file:ui.ui_source ~line ~rule:"global-state" ~context:b.b_canon
                     ~detail:"atomic"
                     "toplevel Atomic.make is mutable state shared across domains and runs; \
                      move it into the machine/runtime instance or Domain.DLS, or vet it as \
                      an Atomic with an allow comment")
              | Shared ctor ->
                if vetted ~file:ui.ui_source ~line then ()
                else begin
                  Hashtbl.replace roots b.b_canon (ui, loc, ctor);
                  add
                    (Finding.v ~file:ui.ui_source ~line ~rule ~context:b.b_canon
                       ~detail:"escaping" ~witness:[ b.b_canon ]
                       (Printf.sprintf
                          "module-init-time %s in %s is one location shared by every \
                           domain; own it per machine/runtime instance, use Domain.DLS, \
                           or vet it with (* lint: allow domain-safety — why *)"
                          ctor b.b_canon))
                end)
            (init_creations idx ui b.b_vb))
        (List.rev ui.ui_bindings))
    idx.units;
  (* Pass 2: cross-module escape — BFS over the reference graph from
     each binding; a path into an escaping root of another unit is a
     finding, witness = the chain. *)
  let edges : (string, string list) Hashtbl.t = Hashtbl.create 256 in
  let unit_of : (string, Cmt_index.unit_info) Hashtbl.t = Hashtbl.create 256 in
  let loc_of : (string, Location.t) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (ui : Cmt_index.unit_info) ->
      List.iter
        (fun (b : Cmt_index.binding) ->
          Hashtbl.replace edges b.b_canon (Cmt_index.refs_of_expr idx ui b.b_vb.vb_expr);
          Hashtbl.replace unit_of b.b_canon ui;
          Hashtbl.replace loc_of b.b_canon b.b_loc)
        ui.ui_bindings)
    idx.units;
  let bfs_from src (src_ui : Cmt_index.unit_info) =
      (* BFS with parent links for the witness chain *)
      let parent : (string, string) Hashtbl.t = Hashtbl.create 16 in
      let q = Queue.create () in
      Queue.add src q;
      Hashtbl.replace parent src "";
      let rec chain node = if node = src then [ src ] else chain (Hashtbl.find parent node) @ [ node ] in
      while not (Queue.is_empty q) do
        let n = Queue.pop q in
        List.iter
          (fun next ->
            if not (Hashtbl.mem parent next) then begin
              Hashtbl.replace parent next n;
              (match Hashtbl.find_opt roots next with
              | Some (root_ui, _, ctor)
                when root_ui.ui_canon <> src_ui.ui_canon ->
                (* Only an *escape* counts: the chain must enter the
                   root's unit at the root itself.  Reaching the state
                   through the owning module's own functions (its API
                   encapsulating its state) is normal. *)
                let wit = chain next in
                let intermediates = List.filter (fun n -> n <> src && n <> next) wit in
                let through_owner =
                  List.exists
                    (fun n ->
                      match Hashtbl.find_opt unit_of n with
                      | Some (ui : Cmt_index.unit_info) -> ui.ui_canon = root_ui.ui_canon
                      | None -> false)
                    intermediates
                in
                let line = Cmt_index.line_of (Hashtbl.find loc_of src) in
                if (not through_owner) && not (vetted ~file:src_ui.ui_source ~line) then
                  add
                    (Finding.v ~file:src_ui.ui_source ~line ~rule ~context:src
                       ~detail:"escaping-getter" ~witness:wit
                       (Printf.sprintf
                          "%s reaches shared mutable state %s (%s) in another module \
                           (chain: %s); the state escapes its owning unit"
                          src next ctor (String.concat " -> " wit)))
              | _ -> ());
              Queue.add next q
            end)
          (Option.value ~default:[] (Hashtbl.find_opt edges n))
      done
  in
  List.iter
    (fun (ui : Cmt_index.unit_info) ->
      List.iter (fun (b : Cmt_index.binding) -> bfs_from b.b_canon ui) ui.ui_bindings)
    idx.units;
  { findings = !findings; classified = List.rev !classified }
