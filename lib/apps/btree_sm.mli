(** The distributed B-link tree over cache-coherent shared memory — the
    data-migration baseline of the paper's Section 4.2.

    Nodes live in shared memory as word blocks; requester threads stay on
    their own processors and pull node contents line by line through the
    coherence protocol.  Read-shared upper levels therefore replicate
    automatically in hardware caches — the effect the paper identifies as
    shared memory's decisive advantage — while insert traffic invalidates
    copies and write-shared lines ping-pong.

    Concurrency control: descents are lock-free seqlock reads (a version
    word per node, odd while a writer is in progress), recovering from
    concurrent splits by Lehman-Yao right-link chasing; writers take a
    per-node spin lock, bump the version around their writes, and
    propagate splits upward one lock at a time.  Within-node key search
    is a linear scan of the sorted key area, reflecting the
    whole-node-sized data movement the paper's bandwidth numbers show. *)

open Cm_machine

type read_mode =
  | Locked
      (** descents take each node's lock (default — Wang-style; the root
          lock line becomes the data-contention hot spot the paper
          describes) *)
  | Seqlock  (** ablation: lock-free version-validated reads *)

type t

val create :
  Sysenv.t ->
  ?read_mode:read_mode ->
  fanout:int ->
  plan:Btree_node.plan ->
  node_procs:int array ->
  placement_seed:int ->
  unit ->
  t
(** Materialize a bulk-load [plan] into shared memory, node homes drawn
    uniformly from [node_procs]. *)

val lookup : t -> int -> bool Thread.t
(** Membership, lock-free. *)

val insert : t -> int -> bool Thread.t
(** Insert; [false] if already present. *)

val height : t -> int
val root_home : t -> int
val splits : t -> int

val all_keys : t -> int list
(** Keys in ascending order via the leaf chain (not simulated). *)

val check_invariants : t -> (unit, string) result
(** Structural invariants at quiescence (see {!Btree_msg.check_invariants}). *)
