(** A distributed hash table — the counterpoint application.

    The paper is explicit that no mechanism wins everywhere ("which
    approach is best depends on the characteristics of the application",
    §1).  The counting network and B-tree both chain accesses, which is
    migration's home turf.  A hash table is the opposite: a [get] or
    [put] touches exactly one bucket and returns — an isolated access,
    where RPC's two messages match migration's hop-plus-return and
    moving the activation buys nothing.  Only [range_sum], which walks a
    run of consecutive buckets, chains accesses again.

    This makes the table the natural showcase for {!Cm_runtime.Adaptive}:
    with [mode = Adaptive] the point-operation sites learn to use RPC
    while the range-scan site learns to migrate.

    Buckets are spread round-robin over the node processors.  The
    shared-memory representation stores each bucket as a fixed-capacity
    block of (key, value) pairs guarded by a spin lock. *)

open Cm_machine

type mode =
  | Messaging of Cm_core.Prelude.access  (** every remote access uses this mechanism *)
  | Adaptive  (** per-site online mechanism selection *)
  | Shared_memory

val mode_name : mode -> string

type t

val create :
  Sysenv.t ->
  ?buckets:int ->
  ?bucket_capacity:int ->
  mode:mode ->
  node_procs:int array ->
  unit ->
  t
(** [create env ~mode ~node_procs ()] builds an empty table of
    [buckets] (default 64) buckets, each holding at most
    [bucket_capacity] (default 64) entries, placed round-robin on
    [node_procs].  In [Messaging] mode get/put/range_sum run through
    the table's {!Cm_runtime.Runtime.msite} method-site table —
    allocation-free steady state. *)

val put : t -> key:int -> value:int -> unit Thread.t
(** [put t ~key ~value] inserts or updates one entry.  Raises
    [Failure] if the target bucket is full. *)

val get : t -> int -> int option Thread.t
(** [get t key] is the value bound to [key], if any. *)

val range_sum : t -> first_bucket:int -> n_buckets:int -> int Thread.t
(** [range_sum t ~first_bucket ~n_buckets] sums every value stored in
    [n_buckets] consecutive buckets (wrapping) — a chained traversal. *)

val n_buckets : t -> int

val bucket_of_key : t -> int -> int
(** The bucket index [key] hashes to. *)

val preload : t -> key:int -> value:int -> unit
(** [preload t ~key ~value] inserts or updates one entry directly,
    bypassing the simulation — for building large (10^6-entry) tables
    before the clock starts.  Raises [Failure] if the bucket is full. *)

val peek : t -> int -> int option
(** [peek t key] is the value bound to [key], read directly (not
    simulated). *)

val size : t -> int
(** Number of entries (not simulated). *)

val contents : t -> (int * int) list
(** All (key, value) pairs, sorted by key (not simulated). *)

val adaptive_report : t -> (string * float * int) list
(** For [Adaptive] mode: each site's name, follow-count estimate and
    sample count (empty list in other modes). *)
