open Cm_engine
open Cm_machine
open Cm_memory
open Thread.Infix

(* Word offsets within a node block. *)
let off_version = 0

let off_is_leaf = 1

let off_nkeys = 2

let off_high = 3

let off_right = 4

(* Entries are stored interleaved — (key, child) pairs — as a real node
   layout would be; a key scan therefore touches a cache line per two
   entries, which is where the paper's shared-memory bandwidth goes.
   For leaves the child slot holds the record pointer (unused here). *)
let off_entries = 5

let key_off i = off_entries + (2 * i)

let child_off i = off_entries + (2 * i) + 1

(* Per-node bookkeeping kept outside simulated memory: the block base
   address and the node's reader-writer lock. *)
type sm_node = { base : Shmem.addr; lock : Rwlock.t }

type read_mode = Locked | Seqlock

type t = {
  env : Sysenv.t;
  read_mode : read_mode;
  fanout : int;
  cap : int;  (* array capacity per node: fanout + 1 *)
  mutable nodes : sm_node array;
  mutable n_nodes : int;
  anchor_lock : Lock.t;
  mutable root : int;
  mutable height : int;
  place_rng : Rng.t;
  node_procs : int array;
  mutable n_splits : int;
}

let mem t = Sysenv.mem t.env

let node_block_words t = off_entries + (2 * t.cap)

let node t i = t.nodes.(i)

let place t = t.node_procs.(Rng.int t.place_rng (Array.length t.node_procs))

(* Cycles a reader spends backing off when it catches a node
   mid-write. *)
let seqlock_backoff = 64

let alloc_node t ~home =
  if t.n_nodes = Array.length t.nodes then begin
    let padding = { base = 0; lock = Rwlock.create (mem t) ~home:t.node_procs.(0) } in
    let bigger = Array.make (max 16 (2 * Array.length t.nodes)) padding in
    Array.blit t.nodes 0 bigger 0 t.n_nodes;
    t.nodes <- bigger
  end;
  let base = Shmem.alloc (mem t) ~home ~words:(node_block_words t) in
  let lock = Rwlock.create (mem t) ~home in
  let idx = t.n_nodes in
  t.nodes.(idx) <- { base; lock };
  t.n_nodes <- idx + 1;
  idx

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

module Plan_tbl = Hashtbl.Make (struct
  type t = Btree_node.plan

  let equal = ( == )

  let hash = Hashtbl.hash
end)

(* Bulk loading happens before the clock starts: contents are poked
   straight into home memory. *)
let pour t idx ~is_leaf ~keys ~children ~high ~right =
  let m = mem t and base = (node t idx).base in
  Shmem.poke m (base + off_version) 0;
  Shmem.poke m (base + off_is_leaf) (if is_leaf then 1 else 0);
  Shmem.poke m (base + off_nkeys) (Array.length keys);
  Shmem.poke m (base + off_high) high;
  Shmem.poke m (base + off_right) right;
  Array.iteri (fun i k -> Shmem.poke m (base + key_off i) k) keys;
  Array.iteri (fun i c -> Shmem.poke m (base + child_off i) c) children

let materialize t plan =
  let height = Btree_node.plan_height plan in
  let ids = Plan_tbl.create 256 in
  for level = 0 to height - 1 do
    let nodes = Btree_node.plan_nodes_at_level plan level in
    let level_ids =
      List.map
        (fun p ->
          let idx = alloc_node t ~home:(place t) in
          (match p with
          | Btree_node.Leaf { keys; high } ->
            pour t idx ~is_leaf:true ~keys ~children:[||] ~high ~right:(-1)
          | Btree_node.Node { keys; high; children } ->
            let child_ids = Array.map (fun c -> Plan_tbl.find ids c) children in
            pour t idx ~is_leaf:false ~keys ~children:child_ids ~high ~right:(-1));
          Plan_tbl.add ids p idx;
          idx)
        nodes
    in
    let rec chain = function
      | a :: (b :: _ as rest) ->
        Shmem.poke (mem t) ((node t a).base + off_right) b;
        chain rest
      | [ _ ] | [] -> ()
    in
    chain level_ids
  done;
  (Plan_tbl.find ids plan, height)

let create env ?(read_mode = Locked) ~fanout ~plan ~node_procs ~placement_seed () =
  if fanout < 4 then invalid_arg "Btree_sm.create: fanout must be >= 4";
  if Array.length node_procs = 0 then invalid_arg "Btree_sm.create: no node processors";
  let anchor_lock = Lock.create (Sysenv.mem env) ~home:node_procs.(0) in
  let t =
    {
      env;
      read_mode;
      fanout;
      cap = fanout + 1;
      nodes = [||];
      n_nodes = 0;
      anchor_lock;
      root = -1;
      height = 0;
      place_rng = Rng.create ~seed:placement_seed;
      node_procs;
      n_splits = 0;
    }
  in
  let root, height = materialize t plan in
  t.root <- root;
  t.height <- height;
  t

(* ------------------------------------------------------------------ *)
(* Reads                                                              *)
(* ------------------------------------------------------------------ *)

type header = { h_leaf : bool; h_nkeys : int; h_high : int; h_right : int }

let read_header t idx =
  let base = (node t idx).base in
  let* words = Shmem.read_block (mem t) (base + off_is_leaf) 4 in
  Thread.return
    { h_leaf = words.(0) = 1; h_nkeys = words.(1); h_high = words.(2); h_right = words.(3) }

(* Linear scan of the sorted key area: the index of the first key >=
   [key] (or nkeys).  Reads every key it passes — the word traffic the
   paper's shared-memory bandwidth numbers reflect. *)
let scan_keys t idx ~nkeys ~key =
  let base = (node t idx).base in
  let rec go i =
    if i >= nkeys then Thread.return (i, false)
    else
      let* k = Shmem.read (mem t) (base + key_off i) in
      if k >= key then Thread.return (i, k = key) else go (i + 1)
  in
  go 0

(* One seqlock-protected visit.  [body] must only read; its result is
   discarded and retried when the version moved. *)
let rec seqlock_visit t idx (body : header -> 'r Thread.t) : 'r Thread.t =
  let base = (node t idx).base in
  let* v1 = Shmem.read (mem t) (base + off_version) in
  if v1 land 1 = 1 then
    let* () = Thread.sleep seqlock_backoff in
    seqlock_visit t idx body
  else
    let* hdr = read_header t idx in
    let* result = body hdr in
    let* v2 = Shmem.read (mem t) (base + off_version) in
    if v2 = v1 then Thread.return result
    else
      let* () = Thread.sleep seqlock_backoff in
      seqlock_visit t idx body

let step_body t idx key h =
  if key > h.h_high && h.h_right >= 0 then Thread.return (`Go (h.h_right, `Same))
  else if h.h_leaf then
    let* _, found = scan_keys t idx ~nkeys:h.h_nkeys ~key in
    Thread.return (`Found found)
  else
    let* i, _ = scan_keys t idx ~nkeys:h.h_nkeys ~key in
    let* child = Shmem.read (mem t) ((node t idx).base + child_off i) in
    Thread.return (`Go (child, `Deeper))

(* Route one step at node [idx] (read-only).  In [Locked] mode — the
   default, matching Wang's algorithm as the paper describes it (an
   update to a node blocks incoming operations, so readers synchronize
   too) — the visit takes the node's lock; the root's lock line then
   ping-pongs between every requester's cache, which is exactly the
   paper's shared-memory "data contention" at the root.  [Seqlock] is
   the lock-free-readers ablation. *)
let visit_step t idx key =
  match t.read_mode with
  | Seqlock -> seqlock_visit t idx (step_body t idx key)
  | Locked ->
    (* Readers share the node, but entering and leaving each cost an
       atomic update of the lock word — one exclusive transfer of that
       line per operation, serialized at the root. *)
    let lock = (node t idx).lock in
    let* () = Rwlock.acquire_read lock in
    let* h = read_header t idx in
    let* result = step_body t idx key h in
    let* () = Rwlock.release_read lock in
    Thread.return result

let lookup t key =
  let rec go idx =
    let* r = visit_step t idx key in
    match r with `Go (next, _) -> go next | `Found present -> Thread.return present
  in
  go t.root

(* ------------------------------------------------------------------ *)
(* Writes                                                             *)
(* ------------------------------------------------------------------ *)

(* All writers follow the same discipline: take the node lock, re-read
   the header (writers are excluded, readers tolerated), mutate between
   version bumps, release. *)

let write t a v = Shmem.write (mem t) a v

let read t a = Shmem.read (mem t) a

(* Shift the entry pairs right by one from [pos], reading and rewriting
   each word (the data movement an in-place node insert really does). *)
let shift_right t idx ~nkeys ~pos ~with_children =
  let base = (node t idx).base in
  let rec go j =
    if j < pos then Thread.return ()
    else
      let* k = read t (base + key_off j) in
      let* () = write t (base + key_off (j + 1)) k in
      let* () =
        if with_children then
          let* c = read t (base + child_off j) in
          write t (base + child_off (j + 1)) c
        else Thread.return ()
      in
      go (j - 1)
  in
  go (nkeys - 1)

(* Copy the upper halves of [idx]'s areas into fresh node [new_idx]
   (writes go through the protocol from the current processor). *)
let spill t idx new_idx ~keep ~nkeys ~with_children ~high ~right =
  let src = (node t idx).base and dst = (node t new_idx).base in
  let moved = nkeys - keep in
  let copy_entries =
    let rec go i =
      if i >= moved then Thread.return ()
      else
        let* k = read t (src + key_off (keep + i)) in
        let* () = write t (dst + key_off i) k in
        let* () =
          if with_children then
            let* c = read t (src + child_off (keep + i)) in
            write t (dst + child_off i) c
          else Thread.return ()
        in
        go (i + 1)
    in
    go 0
  in
  let* () = write t (dst + off_version) 0 in
  let* () = write t (dst + off_is_leaf) (if with_children then 0 else 1) in
  let* () = write t (dst + off_nkeys) moved in
  let* () = write t (dst + off_high) high in
  let* () = write t (dst + off_right) right in
  copy_entries

(* Split locked node [idx]; returns (separator, new node index).  The
   caller already bumped the version to odd and updates it back after. *)
let split_locked t idx ~nkeys ~is_leaf ~high ~right =
  let base = (node t idx).base in
  let keep = Btree_node.split_point ~nkeys in
  let new_idx = alloc_node t ~home:(place t) in
  t.n_splits <- t.n_splits + 1;
  Stats.incr t.env.Sysenv.machine.Machine.stats "btree.splits";
  let* () = spill t idx new_idx ~keep ~nkeys ~with_children:(not is_leaf) ~high ~right in
  let* sep = read t (base + key_off (keep - 1)) in
  let* () = write t (base + off_nkeys) keep in
  let* () = write t (base + off_high) sep in
  let* () = write t (base + off_right) new_idx in
  Thread.return (sep, new_idx)

(* Insert [key] into locked leaf [idx] (key is coverable).  Returns the
   leaf outcome. *)
let leaf_insert_locked t idx hdr key =
  let base = (node t idx).base in
  let* pos, present = scan_keys t idx ~nkeys:hdr.h_nkeys ~key in
  if present then Thread.return (`Done false)
  else begin
    (* Odd version: writer in progress; concurrent seqlock readers
       retry anything they read meanwhile. *)
    let* v = read t (base + off_version) in
    let* () = write t (base + off_version) (v + 1) in
    let* () = shift_right t idx ~nkeys:hdr.h_nkeys ~pos ~with_children:false in
    let* () = write t (base + key_off pos) key in
    let nkeys = hdr.h_nkeys + 1 in
    let* () = write t (base + off_nkeys) nkeys in
    let* result =
      if nkeys > t.fanout then
        let* sep, new_idx =
          split_locked t idx ~nkeys ~is_leaf:true ~high:hdr.h_high ~right:hdr.h_right
        in
        Thread.return (`Split (sep, new_idx, true))
      else Thread.return (`Done true)
    in
    let* () = write t (base + off_version) (v + 2) in
    Thread.return result
  end

(* Insert separator [sep] / child [new_child] into locked internal node
   [idx]. *)
let add_separator_locked t idx hdr ~sep ~new_child =
  let base = (node t idx).base in
  let* i, present = scan_keys t idx ~nkeys:hdr.h_nkeys ~key:sep in
  if present then Thread.return `Done
  else begin
    let* v = read t (base + off_version) in
    let* () = write t (base + off_version) (v + 1) in
    let* () = shift_right t idx ~nkeys:hdr.h_nkeys ~pos:i ~with_children:true in
    let* () = write t (base + key_off i) sep in
    let* () = write t (base + child_off (i + 1)) new_child in
    let nkeys = hdr.h_nkeys + 1 in
    let* () = write t (base + off_nkeys) nkeys in
    let* result =
      if nkeys > t.fanout then
        let* sep2, new2 =
          split_locked t idx ~nkeys ~is_leaf:false ~high:hdr.h_high ~right:hdr.h_right
        in
        Thread.return (`Split (sep2, new2))
      else Thread.return `Done
    in
    let* () = write t (base + off_version) (v + 2) in
    Thread.return result
  end

(* Lock [idx]; if [key] moved beyond it, follow right links (unlocking
   first).  Runs [body] on the locked, coverable node. *)
let rec with_covering_lock t idx ~key (body : int -> header -> 'r Thread.t) : 'r Thread.t =
  let lock = (node t idx).lock in
  let* () = Rwlock.acquire_write lock in
  let* hdr = read_header t idx in
  if key > hdr.h_high && hdr.h_right >= 0 then
    let* () = Rwlock.release_write lock in
    with_covering_lock t hdr.h_right ~key body
  else
    let* result = body idx hdr in
    let* () = Rwlock.release_write lock in
    Thread.return result

let rec descend_steps t idx ~sep ~steps =
  if steps <= 0 then Thread.return idx
  else
    let* r = visit_step t idx sep in
    match r with
    | `Go (next, `Same) -> descend_steps t next ~sep ~steps
    | `Go (next, `Deeper) -> descend_steps t next ~sep ~steps:(steps - 1)
    | `Found _ -> Thread.return idx

let try_root_split t ~left ~sep ~new_child =
  let* () = Lock.acquire t.anchor_lock in
  if t.root = left then begin
    let idx = alloc_node t ~home:(place t) in
    let base = (node t idx).base in
    let* () = write t (base + off_version) 0 in
    let* () = write t (base + off_is_leaf) 0 in
    let* () = write t (base + off_nkeys) 2 in
    let* () = write t (base + off_high) max_int in
    let* () = write t (base + off_right) (-1) in
    let* () = write t (base + key_off 0) sep in
    let* () = write t (base + key_off 1) max_int in
    let* () = write t (base + child_off 0) left in
    let* () = write t (base + child_off 1) new_child in
    t.root <- idx;
    t.height <- t.height + 1;
    Stats.incr t.env.Sysenv.machine.Machine.stats "btree.root_splits";
    let* () = Lock.release t.anchor_lock in
    Thread.return `Ok
  end
  else begin
    let stale = (t.root, t.height) in
    let* () = Lock.release t.anchor_lock in
    Thread.return (`Stale stale)
  end

let rec propagate t ~path ~sep ~new_child ~left ~level =
  match path with
  | parent :: rest ->
    let* landed_outcome =
      with_covering_lock t parent ~key:sep (fun idx hdr ->
          let* outcome = add_separator_locked t idx hdr ~sep ~new_child in
          Thread.return (idx, outcome))
    in
    (match landed_outcome with
    | _, `Done -> Thread.return ()
    | landed, `Split (sep2, new2) ->
      propagate t ~path:rest ~sep:sep2 ~new_child:new2 ~left:landed ~level:(level + 1))
  | [] -> insert_above t ~sep ~new_child ~left ~level

(* As in {!Btree_msg}: when the descent path is exhausted either split
   the root or locate an ancestor at [level + 1]; if a sibling's root
   split is still in flight the parent level does not exist yet — wait
   for it and retry. *)
and insert_above t ~sep ~new_child ~left ~level =
  let* r = try_root_split t ~left ~sep ~new_child in
  match r with
  | `Ok -> Thread.return ()
  | `Stale (root, height) when height - 1 >= level + 1 ->
    let steps = height - 1 - (level + 1) in
    let* ancestor = descend_steps t root ~sep ~steps in
    let* is_leaf = seqlock_visit t ancestor (fun h -> Thread.return h.h_leaf) in
    if is_leaf then begin
      Stats.incr t.env.Sysenv.machine.Machine.stats "btree.propagate_retries";
      let* () = Thread.sleep 500 in
      insert_above t ~sep ~new_child ~left ~level
    end
    else
      let* landed_outcome =
        with_covering_lock t ancestor ~key:sep (fun idx hdr ->
            let* outcome = add_separator_locked t idx hdr ~sep ~new_child in
            Thread.return (idx, outcome))
      in
      (match landed_outcome with
      | _, `Done -> Thread.return ()
      | landed, `Split (sep2, new2) ->
        propagate t ~path:[] ~sep:sep2 ~new_child:new2 ~left:landed ~level:(level + 1))
  | `Stale _ ->
    Stats.incr t.env.Sysenv.machine.Machine.stats "btree.propagate_retries";
    let* () = Thread.sleep 500 in
    insert_above t ~sep ~new_child ~left ~level

let insert t key =
  let rec go idx path =
    let* r = visit_step t idx key in
    match r with
    | `Go (next, `Same) -> go next path
    | `Go (next, `Deeper) -> go next (idx :: path)
    | `Found _ ->
      (* Reached a coverable leaf: do the write under its lock (the leaf
         may split or move right between our read and the lock). *)
      let* outcome =
        with_covering_lock t idx ~key (fun locked hdr ->
            let* o = leaf_insert_locked t locked hdr key in
            Thread.return (locked, o))
      in
      (match outcome with
      | _, `Done added -> Thread.return added
      | landed, `Split (sep, new_idx, added) ->
        let* () = propagate t ~path ~sep ~new_child:new_idx ~left:landed ~level:0 in
        Thread.return added)
  in
  go t.root []

(* ------------------------------------------------------------------ *)
(* Inspection (not simulated)                                         *)
(* ------------------------------------------------------------------ *)

let height t = t.height

let splits t = t.n_splits

let peek t a = Shmem.peek (mem t) a

let view t idx =
  let base = (node t idx).base in
  let nkeys = peek t (base + off_nkeys) in
  {
    Btree_node.is_leaf = peek t (base + off_is_leaf) = 1;
    nkeys;
    high = peek t (base + off_high);
    right = peek t (base + off_right);
    keys = Array.init nkeys (fun i -> peek t (base + key_off i));
    children = Array.init nkeys (fun i -> peek t (base + child_off i));
  }

let root_home t = Shmem.home_of (mem t) (node t t.root).base

let all_keys t = Btree_node.leaf_keys ~root:t.root (view t)

let check_invariants t = Btree_node.check ~fanout:t.fanout ~root:t.root (view t)
