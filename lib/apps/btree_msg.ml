open Cm_engine
open Cm_machine
open Cm_runtime
open Cm_core
open Thread.Infix

type node = {
  is_leaf : bool;
  mutable nkeys : int;
  keys : int array;  (* capacity fanout + 1 *)
  children : int array;  (* object ids; capacity fanout + 1; internal only *)
  mutable right : int;  (* object id, -1 = none *)
  mutable high : int;
}

type anchor = { mutable root : int; mutable height : int }

(* Replicated root content (an immutable snapshot). *)
type snapshot = {
  s_node : int;
  s_level : int;  (** the snapshot node's level (leaves are level 0) *)
  s_leaf : bool;
  s_nkeys : int;
  s_keys : int array;
  s_children : int array;
}

(* The tree's state; the handle [t] below adds the descents' method
   sites, whose steps close over it. *)
type tree = {
  env : Sysenv.t;
  access : Prelude.access;
  fanout : int;
  space : node Objspace.t;
  anchor : anchor;
  anchor_home : int;
  mutable repl : snapshot Replicate.t option;
  replicate_root : bool;
  place_rng : Rng.t;
  node_procs : int array;
  mutable n_splits : int;
  node_init_k : unit Transport.kind;
}

type t = {
  tree : tree;
  lookup_ms : bool Runtime.msite;
  (* Its caller gets [added : bool] at the requester and an [ins] from a
     server (see [unwind]), so its result is untyped. *)
  insert_ms : Obj.t Runtime.msite;
}

let rt t = Sysenv.runtime t.env

let machine t = t.env.Sysenv.machine

let node t nid = Objspace.state t.space (Objspace.id_of_int nid)

let node_home t nid = Objspace.home t.space (Objspace.id_of_int nid)

(* Cycles of user code per node visit: header checks plus a binary
   search. *)
let visit_work n = 60 + (12 * Btree_node.probes ~nkeys:(max 1 n.nkeys))

(* CPU cycles to allocate and initialize a node at its new home. *)
let node_init_work = 80

let node_words n = (2 * n.nkeys) + 5

let snapshot_words s = (2 * s.s_nkeys) + 5

let snapshot_of nid ~level n =
  {
    s_node = nid;
    s_level = level;
    s_leaf = n.is_leaf;
    s_nkeys = n.nkeys;
    s_keys = Array.sub n.keys 0 n.nkeys;
    s_children = (if n.is_leaf then [||] else Array.sub n.children 0 n.nkeys);
  }

let fresh_node t ~is_leaf =
  {
    is_leaf;
    nkeys = 0;
    keys = Array.make (t.fanout + 1) max_int;
    children = (if is_leaf then [||] else Array.make (t.fanout + 1) (-1));
    right = -1;
    high = max_int;
  }

let place t = t.node_procs.(Rng.int t.place_rng (Array.length t.node_procs))

(* Register a split-off node at a random home and charge the
   initialization message from the splitting node's processor (splits
   run at the node being split, so the sender is the current
   processor). *)
let register_remote t n : int Thread.t =
  let home = place t in
  let nid = (Objspace.register t.space ~home n :> int) in
  t.n_splits <- t.n_splits + 1;
  Stats.incr (machine t).Machine.stats "btree.splits";
  let words = node_words n in
  let* () = Transport.post (Machine.transport (machine t)) t.node_init_k ~dst:home ~words () in
  Thread.return nid

(* ------------------------------------------------------------------ *)
(* Construction from a bulk-load plan                                 *)
(* ------------------------------------------------------------------ *)

(* Plans are compared by physical identity: [build_plan] shares subtree
   values, and structural hashing of large subtrees would be quadratic. *)
module Plan_tbl = Hashtbl.Make (struct
  type t = Btree_node.plan

  let equal = ( == )

  let hash = Hashtbl.hash
end)

let materialize t plan =
  let height = Btree_node.plan_height plan in
  (* Create nodes level by level, leaves first, so children ids exist;
     then chain right links left-to-right within each level. *)
  let ids = Plan_tbl.create 256 in
  for level = 0 to height - 1 do
    let nodes = Btree_node.plan_nodes_at_level plan level in
    let level_ids =
      List.map
        (fun p ->
          let n =
            match p with
            | Btree_node.Leaf { keys; high } ->
              let node = fresh_node t ~is_leaf:true in
              Array.blit keys 0 node.keys 0 (Array.length keys);
              node.nkeys <- Array.length keys;
              node.high <- high;
              node
            | Btree_node.Node { keys; high; children } ->
              let node = fresh_node t ~is_leaf:false in
              Array.blit keys 0 node.keys 0 (Array.length keys);
              node.nkeys <- Array.length keys;
              node.high <- high;
              Array.iteri (fun i c -> node.children.(i) <- Plan_tbl.find ids c) children;
              node
          in
          let nid = (Objspace.register t.space ~home:(place t) n :> int) in
          Plan_tbl.add ids p nid;
          nid)
        nodes
    in
    (* Right links. *)
    let rec chain = function
      | a :: (b :: _ as rest) ->
        (node t a).right <- b;
        chain rest
      | [ _ ] | [] -> ()
    in
    chain level_ids
  done;
  let root_id = Plan_tbl.find ids plan in
  (root_id, height)

(* ------------------------------------------------------------------ *)
(* Split propagation (generic remote calls)                           *)
(* ------------------------------------------------------------------ *)

(* A descent's migrating activation carries the key and its linkage;
   size the message accordingly. *)
let descent_words = 8

(* A node method as a generic remote call, for split propagation; the
   descents run on method-site frames (below). *)
let invoke_node t nid (m : node -> 'r Thread.t) : 'r Thread.t =
  Runtime.call (rt t) ~access:t.access ~home:(node_home t nid) ~args_words:descent_words
    ~result_words:2 (m (node t nid))

(* One search step at a node (the frame steps below inline it). *)
type step = Move_right of int | Down of int | Leaf_here

let step_of n key =
  if key > n.high && n.right >= 0 then Move_right n.right
  else if n.is_leaf then Leaf_here
  else Down n.children.(Btree_node.find_child_index ~keys:n.keys ~nkeys:n.nkeys ~key)

(* Entry point of a descent: the root, or — with a replicated root — a
   child chosen from the local snapshot.  Also reports the entry node's
   level (for root-split handling in [insert]). *)
let start_point t key : (int * int) Thread.t =
  match t.repl with
  | None -> Thread.return (t.anchor.root, t.anchor.height - 1)
  | Some r ->
    let* s = Replicate.read r in
    (* The snapshot may be stale (e.g. taken just after the root node
       split but before the new root was installed): when it cannot
       route [key], descend from the snapshot's node and let the normal
       right-link chasing recover. *)
    if s.s_leaf || s.s_nkeys = 0 || key > s.s_keys.(s.s_nkeys - 1) then
      Thread.return (s.s_node, s.s_level)
    else begin
      let* () = Thread.compute (60 + (12 * Btree_node.probes ~nkeys:s.s_nkeys)) in
      let child =
        s.s_children.(Btree_node.find_child_index ~keys:s.s_keys ~nkeys:s.s_nkeys ~key)
      in
      Thread.return (child, s.s_level - 1)
    end

(* Split [n] (which just overflowed), returning the separator and the
   new right sibling's id.  Runs at [n]'s home, which therefore sends
   the initialization message. *)
let split_node t n : (int * int) Thread.t =
  let keep = Btree_node.split_point ~nkeys:n.nkeys in
  let moved = n.nkeys - keep in
  let sibling = fresh_node t ~is_leaf:n.is_leaf in
  Array.blit n.keys keep sibling.keys 0 moved;
  if not n.is_leaf then Array.blit n.children keep sibling.children 0 moved;
  sibling.nkeys <- moved;
  sibling.high <- n.high;
  sibling.right <- n.right;
  let* new_id = register_remote t sibling in
  n.nkeys <- keep;
  n.high <- n.keys.(keep - 1);
  n.right <- new_id;
  Thread.return (n.high, new_id)

(* Insert separator [sep] (new right child [new_child]) into internal
   node [n]; assumes sep <= n.high. *)
let add_separator t n ~sep ~new_child =
  let i = Btree_node.find_child_index ~keys:n.keys ~nkeys:n.nkeys ~key:sep in
  if n.keys.(i) = sep then begin
    (* An equal separator can only be a re-delivered propagation (splits
       of distinct nodes have distinct high keys at one level). *)
    Stats.incr (machine t).Machine.stats "btree.dup_sep";
    Thread.return `Done
  end
  else begin
    (* Old entry (H -> L) at i becomes (sep -> L), (H -> new_child). *)
    Btree_node.insert_at ~keys:n.keys ~nkeys:n.nkeys ~pos:i sep;
    Array.blit n.children i n.children (i + 1) (n.nkeys - i);
    n.children.(i + 1) <- new_child;
    n.nkeys <- n.nkeys + 1;
    let* () = Thread.compute (8 * (n.nkeys - i)) in
    if n.nkeys > t.fanout then
      let* sep2, new2 = split_node t n in
      Thread.return (`Split (sep2, new2))
    else Thread.return `Done
  end

(* After modifying the node that is currently the root, refresh the
   replicated snapshot (runs at the root's home). *)
let refresh_root_snapshot t nid : unit Thread.t =
  match t.repl with
  | Some r when nid = t.anchor.root ->
    Replicate.update r ~access:t.access
      (snapshot_of nid ~level:(t.anchor.height - 1) (node t nid))
  | Some _ | None -> Thread.return ()

(* Move right at one level until [sep] is coverable, then insert the
   separator there.  Returns the landing node and the outcome. *)
let rec add_sep_at t pid ~sep ~new_child =
  let* r =
    invoke_node t pid (fun n ->
        let* () = Thread.compute (visit_work n) in
        if sep > n.high && n.right >= 0 then Thread.return (`Right n.right)
        else
          let* outcome = add_separator t n ~sep ~new_child in
          Thread.return (`Landed outcome))
  in
  match r with
  | `Right next -> add_sep_at t next ~sep ~new_child
  | `Landed outcome ->
    let* () = refresh_root_snapshot t pid in
    Thread.return (pid, outcome)

(* Serialize root splits at the anchor's home processor. *)
let try_root_split t ~left ~sep ~new_child =
  Runtime.call (rt t) ~access:t.access ~home:t.anchor_home ~args_words:8 ~result_words:4
    (let* () = Thread.compute 40 in
     if t.anchor.root = left then begin
       let root = fresh_node t ~is_leaf:false in
       root.keys.(0) <- sep;
       root.keys.(1) <- max_int;
       root.children.(0) <- left;
       root.children.(1) <- new_child;
       root.nkeys <- 2;
       let* rid = register_remote t root in
       t.anchor.root <- rid;
       t.anchor.height <- t.anchor.height + 1;
       Stats.incr (machine t).Machine.stats "btree.root_splits";
       if t.replicate_root then
         t.repl <-
           Some
             (Replicate.create (rt t) ~home:(node_home t rid) ~words_of:snapshot_words
                (snapshot_of rid ~level:(t.anchor.height - 1) root));
       Thread.return `Ok
     end
     else Thread.return (`Stale (t.anchor.root, t.anchor.height)))

(* Descend [steps] levels from [nid] following [sep] (with right moves),
   to locate an ancestor during a stale root split. *)
let rec descend_steps t nid ~sep ~steps =
  if steps = 0 then Thread.return nid
  else
    let* step =
      invoke_node t nid (fun n ->
          let* () = Thread.compute (visit_work n) in
          Thread.return (step_of n sep))
    in
    match step with
    | Move_right next -> descend_steps t next ~sep ~steps
    | Down next -> descend_steps t next ~sep ~steps:(steps - 1)
    | Leaf_here -> Thread.return nid

(* Insert a separator for a split that bubbled out of the top of the
   descent: either [left] is the root (split it), or the tree has grown
   and an ancestor at [level + 1] must be located from the current
   root.  When a sibling's root split is still in flight the parent
   level does not exist yet; wait for it and retry. *)
let rec insert_above t ~sep ~new_child ~left ~level =
  let* r = try_root_split t ~left ~sep ~new_child in
  match r with
  | `Ok -> Thread.return ()
  | `Stale (root, height) when height - 1 >= level + 1 ->
    let steps = height - 1 - (level + 1) in
    let* ancestor = descend_steps t root ~sep ~steps in
    if (node t ancestor).is_leaf then begin
      (* Pending propagations routed us below the target level; let
         them land and retry. *)
      Stats.incr (machine t).Machine.stats "btree.propagate_retries";
      let* () = Thread.sleep 500 in
      insert_above t ~sep ~new_child ~left ~level
    end
    else
      let* landed, outcome = add_sep_at t ancestor ~sep ~new_child in
      (match outcome with
      | `Done -> Thread.return ()
      | `Split (sep2, new2) ->
        insert_above t ~sep:sep2 ~new_child:new2 ~left:landed ~level:(level + 1))
  | `Stale _ ->
    (* The parent level does not exist yet: the root split that will
       create it (from our left sibling's chain) is still in flight. *)
    Stats.incr (machine t).Machine.stats "btree.propagate_retries";
    let* () = Thread.sleep 500 in
    insert_above t ~sep ~new_child ~left ~level

(* ------------------------------------------------------------------ *)
(* Descents on method-site frames                                     *)
(* ------------------------------------------------------------------ *)

(* The descent is the natural recursive shared-memory-style program:
   each node visit is an instance method executing at the node's home,
   and the recursive call is itself a remote access.  Under RPC this
   nests calls — replies cascade back through every level, costing the
   root's processor a reply-handling pass per operation.  Under
   computation migration every recursive call is a tail call, so the
   activation simply hops down the tree and the single result message is
   short-circuited to the requester by the enclosing scope.

   Both descents run that program on method-site frames: a node visit
   is one [frame_body] run of the tree's lookup or insert site, and the
   recursive call is [Runtime.msite_next], so a steady-state operation
   walks static steps and allocates nothing.  Operands: the node id,
   [a] = the key, [b] = the visit's cycles.  [b] is computed from the
   node's key count where the call is issued, so an insert landing
   while the call is in flight does not change the charge: the pinned
   digests depend on this stale read (ROADMAP item 2). *)

let visit_next t c next key =
  Runtime.msite_next c ~obj:next ~a:key ~b:(visit_work (node t next))

let lookup_at t c =
  let n = node t (Runtime.msite_obj c) and key = Runtime.msite_arg_a c in
  if key > n.high && n.right >= 0 then visit_next t c n.right key
  else if n.is_leaf then
    Runtime.msite_finish c (Btree_node.member ~keys:n.keys ~nkeys:n.nkeys ~key)
  else
    visit_next t c n.children.(Btree_node.find_child_index ~keys:n.keys ~nkeys:n.nkeys ~key) key

(* Result of an insert below a node: whether a fresh key was added, plus
   a split that the caller (the parent frame) must absorb — [landed] is
   the node that actually split after right moves.  The no-split results
   are shared constants. *)
type ins = { added : bool; pending : (int * int * int) option (* sep, new child, landed *) }

let settled_added = { added = true; pending = None }

let settled_present = { added = false; pending = None }

let settled added = if added then settled_added else settled_present

(* The monadic legs of an insert, entered only through [hand_off]. *)

let split_leaf t n nid : ins Thread.t =
  let* sep, new_id = split_node t n in
  let* () = refresh_root_snapshot t nid in
  Thread.return { added = true; pending = Some (sep, new_id, nid) }

let refreshed t nid r : ins Thread.t =
  let* () = refresh_root_snapshot t nid in
  Thread.return r

(* Absorb a child's split at [parent] (re-reaching its home if the
   activation has moved away). *)
let absorb t parent ~sep ~new_child ~added : ins Thread.t =
  let* landed, outcome = add_sep_at t parent ~sep ~new_child in
  match outcome with
  | `Done -> Thread.return (settled added)
  | `Split (sep2, new2) -> Thread.return { added; pending = Some (sep2, new2, landed) }

let grow t ~sep ~new_child ~left ~level ~added : ins Thread.t =
  let* () = insert_above t ~sep ~new_child ~left ~level in
  Thread.return (settled added)

(* The insert's pending path lives on the context's int stack: each
   [Down] pushes the node it descends from, whose frame absorbs the
   child's split before returning.  Below them the requester's entry
   pushes [-(level + 1)]: the entry node's level, for a split that
   bubbles out of the top, and the mark that this context issued the
   operation.  An RPC server thread starts with an empty stack, so its
   unwinding ends in a reply.

   [unwind] returns [r] up that path.  Each parent absorbs a pending
   split; at the mark the tree grows if the split reached the top, and
   the requester's continuation gets [added]; on a server [r] itself is
   the reply, received by the calling frame's [rpc_return]. *)
let rec unwind t c (r : ins) =
  if Thread.Frame.depth c = 0 then Runtime.msite_finish c r
  else
    let top = Thread.Frame.top c in
    match r.pending with
    | None ->
      ignore (Thread.Frame.pop c : int);
      if top >= 0 then unwind t c r else Runtime.msite_finish c r.added
    | Some (sep, new_child, landed) ->
      if top >= 0 then begin
        ignore (Thread.Frame.pop c : int);
        hand_off t c (absorb t top ~sep ~new_child ~added:r.added)
      end
      else hand_off t c (grow t ~sep ~new_child ~left:landed ~level:(-top - 1) ~added:r.added)

(* The one way from a frame step into monadic code, for the rare legs:
   a split and its propagation, and a refresh of the replicated root.
   Generic calls and [Replicate] overwrite the parked continuation and
   the method-site lane, so park the continuation, the site and the
   scope origin first and restore them before unwinding on, since
   [Runtime.msite_finish] reads all three. *)
and hand_off t c (m : ins Thread.t) =
  let k = Thread.Frame.take_k c in
  let ms : Obj.t = Thread.Frame.getms c in
  let origin = Thread.Frame.getm4 c in
  m c
    (* lint: allow hot-alloc the split hand-off: one closure per split or root refresh, none on the no-split path *)
    (fun r ->
      Thread.Frame.save_k c k;
      Thread.Frame.setms c ms;
      Thread.Frame.setm4 c origin;
      unwind t c r)

(* Under [Rpc] a frame must see its callee's reply before it returns
   when its context has a pending path (parents, or the requester's
   mark): the reply feeds this return step, which restores the parked
   continuation and unwinds.  The method-site lane and the stack are
   intact, since the context was blocked in the call. *)
let rpc_return t c k =
  (* lint: allow hot-alloc the RPC return step: one closure per remote call with a pending path, beside the stub the RPC arm already allocates *)
  let ret (r : ins) =
    Thread.Frame.save_k c k;
    unwind t c r
  in
  ret

let park_rpc_return t c next =
  match t.access with
  | Runtime.Rpc ->
    if Thread.Frame.depth c > 0 && node_home t next <> Processor.id (Thread.Frame.proc c) then
      Thread.Frame.save_k c (rpc_return t c (Thread.Frame.take_k c))
  | Runtime.Migrate -> ()

(* Migrations and local calls keep the continuation: the activation
   stays on this context.  A server with nothing pending forwards the
   call in tail position, its reply feeding its own caller's. *)
let insert_next t c next key =
  park_rpc_return t c next;
  visit_next t c next key

(* Every leaf outcome refreshes the root's snapshot when the leaf is the
   replicated root. *)
let leaf_done t c nid r =
  match t.repl with
  | Some _ when nid = t.anchor.root -> hand_off t c (refreshed t nid r)
  | Some _ | None -> unwind t c r

let insert_at t leaf_inserted c =
  let nid = Runtime.msite_obj c in
  let n = node t nid and key = Runtime.msite_arg_a c in
  if key > n.high && n.right >= 0 then insert_next t c n.right key
  else if n.is_leaf then begin
    if Btree_node.member ~keys:n.keys ~nkeys:n.nkeys ~key then leaf_done t c nid settled_present
    else begin
      let pos = Btree_node.insertion_point ~keys:n.keys ~nkeys:n.nkeys ~key in
      Btree_node.insert_at ~keys:n.keys ~nkeys:n.nkeys ~pos key;
      n.nkeys <- n.nkeys + 1;
      Thread.Frame.hold_then c (4 * (n.nkeys - pos)) leaf_inserted
    end
  end
  else begin
    Thread.Frame.push c nid;
    insert_next t c n.children.(Btree_node.find_child_index ~keys:n.keys ~nkeys:n.nkeys ~key) key
  end

(* After the leaf's shift: split the leaf if it overflowed. *)
let leaf_inserted_at t c =
  let nid = Runtime.msite_obj c in
  let n = node t nid in
  if n.nkeys > t.fanout then hand_off t c (split_leaf t n nid)
  else leaf_done t c nid settled_added

let lookup_from h c k ~start key =
  Runtime.msite_scoped h.lookup_ms ~obj:start ~a:key ~b:(visit_work (node h.tree start)) c k

let lookup h key c k =
  let t = h.tree in
  match t.repl with
  | None -> lookup_from h c k ~start:t.anchor.root key
  | Some _ -> start_point t key c (fun (start, _level) -> lookup_from h c k ~start key)

(* The requester's entry: park the caller's continuation, push the mark,
   and call the root (or the snapshot's child). *)
let insert_from h c k ~start ~level key =
  let t = h.tree in
  Thread.Frame.save_k c k;
  Thread.Frame.push c (-level - 1);
  park_rpc_return t c start;
  Runtime.msite_scoped h.insert_ms ~obj:start ~a:key ~b:(visit_work (node t start)) c
    (Thread.Frame.take_k c)

let insert h key c k =
  let t = h.tree in
  match t.repl with
  | None -> insert_from h c k ~start:t.anchor.root ~level:(t.anchor.height - 1) key
  | Some _ -> start_point t key c (fun (start, level) -> insert_from h c k ~start ~level key)

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

let create env ~access ~fanout ~replicate_root ~plan ~node_procs ~placement_seed =
  if fanout < 4 then invalid_arg "Btree_msg.create: fanout must be >= 4";
  if Array.length node_procs = 0 then invalid_arg "Btree_msg.create: no node processors";
  let tp = Machine.transport env.Sysenv.machine in
  (* A split-off node's initialization message: the receiving home runs
     the allocation/initialization work itself (no generic receive
     pipeline — this models the memory-side cost only). *)
  let node_init_k = Transport.kind tp ~recv:Transport.Recv_bare "node_init" in
  Transport.Endpoint.register_all tp ~kind:node_init_k (fun () ->
      Thread.compute node_init_work);
  let space = Objspace.create env.Sysenv.machine in
  (* A method site reads only the home table of its object space, which
     does not depend on the state type. *)
  let site_space : Obj.t Objspace.t = Obj.magic space in
  let site frame_body =
    Runtime.msite (Sysenv.runtime env) ~access ~space:site_space ~args_words:descent_words
      ~result_words:2 ~frame_body
  in
  let t =
    {
      env;
      access;
      fanout;
      space;
      anchor = { root = -1; height = 0 };
      anchor_home = node_procs.(0);
      repl = None;
      replicate_root;
      place_rng = Rng.create ~seed:placement_seed;
      node_procs;
      n_splits = 0;
      node_init_k;
    }
  in
  let root_id, height = materialize t plan in
  t.anchor.root <- root_id;
  t.anchor.height <- height;
  if replicate_root then
    t.repl <-
      Some
        (Replicate.create (rt t) ~home:(node_home t root_id) ~words_of:snapshot_words
           (snapshot_of root_id ~level:(height - 1) (node t root_id)));
  (* The steps are built once here; a visit holds its issue-time cycles,
     then runs its step. *)
  let lookup_step c = lookup_at t c in
  let leaf_inserted c = leaf_inserted_at t c in
  let insert_step c = insert_at t leaf_inserted c in
  {
    tree = t;
    lookup_ms = site (fun c -> Thread.Frame.hold_then c (Runtime.msite_arg_b c) lookup_step);
    insert_ms = site (fun c -> Thread.Frame.hold_then c (Runtime.msite_arg_b c) insert_step);
  }

(* ------------------------------------------------------------------ *)
(* Inspection (not simulated)                                         *)
(* ------------------------------------------------------------------ *)

let height { tree = t; _ } = t.anchor.height

let root_home { tree = t; _ } = node_home t t.anchor.root

let splits { tree = t; _ } = t.n_splits

let view t nid =
  let n = node t nid in
  {
    Btree_node.is_leaf = n.is_leaf;
    nkeys = n.nkeys;
    high = n.high;
    right = n.right;
    keys = n.keys;
    children = n.children;
  }

let all_keys { tree = t; _ } = Btree_node.leaf_keys ~root:t.anchor.root (view t)

let check_invariants { tree = t; _ } =
  Btree_node.check ~fanout:t.fanout ~root:t.anchor.root (view t)
