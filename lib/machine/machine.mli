(** A simulated distributed-memory multiprocessor.

    Bundles the simulator clock, the cost model, the topology, the network,
    and an array of processors; provides seeded, reproducible thread
    spawning.  Every higher layer (coherent shared memory, the Prelude-like
    runtime, the applications) builds on a [Machine.t]. *)

open Cm_engine

(** The thread engine.  There is one (see {!Thread}); its name is kept
    for callers that record the configuration. *)
type engine = Frames

val default_engine : unit -> engine

val engine_name : engine -> string
(** ["frames"]. *)

val default_shards : unit -> int
(** Always 1: every machine runs on one scheduler.  Kept for callers
    that record the configuration. *)

type t = {
  sim : Sim.t;
  costs : Costs.t;
  topo : Topology.t;
  net : Network.t;
  procs : Processor.t array;
  stats : Stats.t;
  rng : Rng.t;
  eng : Thread.engine;  (** internal: the context pool threads share *)
  mutable next_tid : int;  (** internal: spawn counter *)
  mutable transport_ : Transport.t option;  (** internal: see {!transport} *)
}

val create :
  ?seed:int ->
  ?topology:[ `Mesh | `Torus | `Crossbar ] ->
  ?net_contention:bool ->
  ?wheel_bits:int ->
  n_procs:int ->
  costs:Costs.t ->
  unit ->
  t
(** [create ~n_procs ~costs ()] is a machine of [n_procs] processors on a
    mesh (by default), with a fresh clock and statistics registry.
    [seed] (default 42) fixes every random choice made under this
    machine.  [net_contention] (default off) enables the link-occupancy
    network model (see {!Network.create}).  [wheel_bits] (default 12)
    sizes the scheduler's calendar wheel (see {!Sim.create}); it affects
    performance only — extraction order, and therefore every statistic
    and digest, is identical at any size. *)

val n_procs : t -> int
(** Number of processors. *)

val proc : t -> int -> Processor.t
(** [proc t i] is processor [i].  Raises [Invalid_argument] when out of
    range. *)

val spawn : t -> on:int -> ?on_exit:(unit -> unit) -> unit Thread.t -> unit
(** [spawn t ~on body] starts a thread on processor [on] with a tid and
    random stream drawn deterministically from the machine. *)

val transport : t -> Transport.t
(** [transport t] is the machine's message transport (created on first
    use; one shared instance per machine).  All remote traffic outside
    [lib/machine] flows through it — see {!Transport} and the [raw-send]
    lint rule. *)

val run : ?until:int -> t -> unit
(** [run ?until t] drives the simulation (see {!Cm_engine.Sim.run}).
    When {!Cm_engine.Check.Trail} recording is on, a digest of the
    finished run is appended to the trail. *)

val digest : t -> string
(** [digest t] is a hash of the machine's observable outcome — final
    clock, events fired, and every statistic (see
    {!Cm_engine.Check.Trail.digest_of_run}).  Two same-seed runs of a
    deterministic workload must produce equal digests. *)

val now : t -> int
(** Current cycle. *)

val events_fired : t -> int
(** [events_fired t] is the total events executed so far. *)
