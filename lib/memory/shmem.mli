(** Cache-coherent shared memory — the paper's "data migration" baseline.

    Implements an Alewife-style full-map directory invalidation protocol
    (MSI) over the machine's network.  Each processor has a hardware cache
    ({!Cache}); each allocated line has a home node holding its directory
    entry and backing storage.  Remote misses {e stall} the issuing
    processor (the simulated machine, like the paper's, has no hardware
    multithreading), while directory and remote-cache work is done by
    hardware controllers that consume no CPU cycles — the key asymmetry
    with RPC and computation migration, whose handlers occupy the remote
    CPU.

    Protocol transactions are atomic at issue time: all cache and
    directory state changes for one miss happen in a single simulation
    event, and the requester resumes after the transaction's computed
    latency (request, possible fetch/write-back from an owner, possible
    invalidation round, reply).  Every protocol message is injected into
    the network for traffic accounting, so shared-memory bandwidth —
    dominant in the paper's Figure 3 and Table 2 — is measured on the
    same scale as RPC and migration traffic.

    Word values are tracked end to end: reads return the value of the most
    recent write in simulation order, which the property tests verify. *)

open Cm_machine

type config = {
  line_words : int;  (** words per cache line (paper: 4 = 16 bytes) *)
  cache_slots : int;  (** lines per processor cache (paper: 4096 = 64 KB) *)
  hit_cost : int;  (** CPU cycles per cache access *)
  dir_latency : int;  (** directory/memory controller occupancy per transaction *)
  ctrl_words : int;  (** payload words of a protocol control message *)
}

val default_config : config
(** The paper's geometry: 4-word lines (16 bytes), 4096 slots (64 KB),
    3-cycle hits, and a 30-cycle directory/memory occupancy per
    transaction — an effective figure that also stands in for the
    protocol-level queueing and network contention Proteus modelled and
    this simulator does not. *)

type t

type addr = int
(** A word address in the shared address space. *)

val create : Machine.t -> t
(** [create machine] attaches a coherent memory system (one cache per
    processor, {!default_config}'s geometry) to [machine]. *)

val alloc : t -> home:int -> words:int -> addr
(** [alloc t ~home ~words] reserves [words] words of line-aligned shared
    memory whose directory lives on processor [home]; returns the base
    address.  Contents start as zero. *)

val home_of : t -> addr -> int
(** [home_of t a] is the home processor of [a]'s line.  Raises
    [Invalid_argument] for an unallocated address. *)

(** {1 Simulated accesses}

    These run inside a thread and charge CPU/stall time and network
    traffic. *)

val read : t -> addr -> int Thread.t
(** [read t a] is the current value at [a]. *)

val write : t -> addr -> int -> unit Thread.t
(** [write t a v] stores [v] at [a] (obtaining exclusive ownership). *)

val rmw : t -> addr -> (int -> int) -> int Thread.t
(** [rmw t a f] atomically replaces the value [v] at [a] with [f v] and
    returns [v] — the machine's fetch-and-op primitive (used for locks,
    counters and balancer toggles). *)

val read_block : t -> addr -> int -> int array Thread.t
(** [read_block t a n] reads [n] consecutive words starting at [a]. *)

(** {1 Non-simulated access}

    For building initial data structures before the clock starts and for
    checking final state in tests; no cycles or traffic are charged. *)

val poke : t -> addr -> int -> unit
(** [poke t a v] writes [v] directly to the coherent current copy. *)

val peek : t -> addr -> int
(** [peek t a] reads the coherent current value (honouring a dirty cached
    copy). *)

(** {1 Introspection} *)

val cache_of : t -> int -> Cache.t
(** [cache_of t p] is processor [p]'s cache. *)

(** {1 Sanitizers} *)

val validate : t -> unit
(** [validate t] checks the MSI invariants of every allocated line
    against every cache — at most one Modified owner, sharer sets
    consistent with per-cache states, Shared copies identical to home
    memory — raising {!Cm_engine.Check.Violation} on the first breach.
    Runs regardless of {!Cm_engine.Check.enabled}; the per-transaction
    checks the protocol performs itself are gated on it. *)

(** Hooks for tests only (other geometries, fault injection) — never
    call from production code. *)
module For_testing : sig
  val create : config:config -> Machine.t -> t
  (** [create ~config machine] is {!Shmem.create} with another geometry
      (e.g. small caches, to force evictions).  Raises
      [Invalid_argument] naming the field when [config.line_words] or
      [config.cache_slots] is not positive. *)

  val force_second_owner : t -> addr -> pid:int -> unit
  (** [force_second_owner t a ~pid] plants a Modified copy of [a]'s line
      in [pid]'s cache without telling the directory, manufacturing the
      illegal two-owner state that {!validate} must detect. *)
end
