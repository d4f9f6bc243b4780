(** The distributed B-tree application (paper §4.2), over any of the
    three remote-access mechanisms.

    A single interface dispatching to {!Btree_msg} (RPC / computation
    migration, optionally with a software-replicated root) or
    {!Btree_sm} (cache-coherent shared memory).  The paper's standard
    instance: 10 000 keys bulk-loaded at fill ~0.7, fanout 100 (or 10
    for the contention-relief experiment), nodes placed uniformly at
    random across 48 processors, 16 requester threads elsewhere. *)

open Cm_machine

type mode = Messaging of Cm_core.Prelude.access | Shared_memory

type t

val create :
  Sysenv.t ->
  mode:mode ->
  fanout:int ->
  ?fill:float ->
  ?replicate_root:bool ->
  ?sm_read_mode:Btree_sm.read_mode ->
  ?placement_seed:int ->
  node_procs:int array ->
  keys:int list ->
  unit ->
  t
(** [create env ~mode ~fanout ~node_procs ~keys ()] bulk-loads [keys]
    (made distinct and sorted) with fill factor [fill] (default 0.7) and
    places nodes uniformly over [node_procs].  [replicate_root] (default
    false) enables WW90-style root replication; it only applies to
    messaging modes — shared memory already replicates in hardware.
    Raises [Invalid_argument] when [fill] is not in (0, 1] (see
    {!Btree_node.build_plan}). *)

val lookup : t -> int -> bool Thread.t
(** Membership test, run from a requester thread. *)

val insert : t -> int -> bool Thread.t
(** Insert a key; [false] when it was already present. *)

val height : t -> int
val root_home : t -> int
val splits : t -> int

val all_keys : t -> int list
(** All keys ascending (leaf chain; not simulated). *)

val check_invariants : t -> (unit, string) result
(** Structural soundness at quiescence. *)
