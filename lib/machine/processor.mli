(** Simulated processors.

    A processor is a FCFS resource: ready tasks queue up, and the dispatched
    task holds the CPU across its compute segments until it explicitly
    releases it (because it finished, blocked, or migrated away).  Each
    dispatch charges the cost model's scheduler overhead, matching the
    "Scheduler" row of the paper's Table 5.

    Resource contention — e.g. activations piling up at the B-tree root's
    processor — emerges from this queueing, which is the effect the paper's
    Section 4.2 analyses.

    The ready queue is a ring buffer of (continuation, argument) pairs
    and dispatch events are pooled by the simulator, so the
    enqueue/dispatch/release cycle allocates nothing — including waking a
    thread with a value ({!enqueue_app}) and delayed enqueues, which park
    the task in a pooled slot ({!enqueue_after}) instead of capturing it
    in a closure. *)

open Cm_engine

type t

val create : sim:Sim.t -> stats:Stats.t -> scheduler_cost:int -> id:int -> t
(** [create ~sim ~stats ~scheduler_cost ~id] is an idle processor.
    [scheduler_cost] cycles are charged at every task dispatch. *)

val id : t -> int
(** [id p] is the processor's index in its machine. *)

val sim : t -> Sim.t
(** [sim p] is the simulator driving this processor. *)

val enqueue : t -> (unit -> unit) -> unit
(** [enqueue p task] appends [task] to [p]'s ready queue and dispatches it
    when the CPU becomes free.  Once started, [task] owns the CPU; it (or
    the continuation chain it schedules via {!hold}) must eventually call
    {!release}. *)

val enqueue_app : t -> ('a -> unit) -> 'a -> unit
(** [enqueue_app p k v] is [enqueue p (fun () -> k v)] without building
    the wrapper: the continuation and its argument are stored side by
    side in the ring and applied at dispatch.  The zero-allocation wakeup
    path of the thread layer's frame engine. *)

val enqueue_after : t -> delay:int -> (unit -> unit) -> unit
(** [enqueue_after p ~delay task] enqueues [task] after [delay] cycles
    have elapsed.  The wait is a pooled park slot plus a pooled simulator
    event — no closure; event timing and ordering are identical to
    [Sim.after _ delay (fun () -> enqueue p task)]. *)

val hold : t -> int -> (unit -> unit) -> unit
(** [hold p n k] keeps the CPU busy for [n >= 0] cycles, then runs [k]
    (still holding the CPU).  Must only be called by the task currently
    owning the CPU. *)

val hold_post : t -> int -> Sim.hid -> int -> unit
(** [hold_post p n hid arg] is {!hold} delivering to a pooled handler
    occurrence [(hid, arg)] instead of a closure: the scheduled event
    carries ints only, so the hot hold path stores no pointer into the
    event pool.  Identical event time and ordering to {!hold}. *)

val charge : t -> int -> unit
(** [charge p n] accounts [n] already-elapsed cycles as busy time without
    scheduling anything.  Used for memory stalls, where the CPU is held
    while waiting for the coherence protocol and the duration is only
    known when the reply arrives. *)

val release : t -> unit
(** [release p] gives up the CPU; the next ready task (if any) is
    dispatched.  Must be called exactly once per dispatched task life
    segment. *)

val is_busy : t -> bool
(** [is_busy p] is true while a task owns the CPU. *)

val queue_length : t -> int
(** [queue_length p] is the number of tasks waiting (excluding a running
    one). *)

val busy_cycles : t -> int
(** [busy_cycles p] is the cumulative number of cycles the CPU has spent
    executing tasks (including scheduler dispatch overhead). *)

val utilization : t -> now:int -> float
(** [utilization p ~now] is [busy_cycles / now] (0 when [now = 0]). *)

(** {1 Pool introspection} — for tests asserting pool growth and slot
    reuse; not part of the simulation semantics. *)

val parked : t -> int
(** Number of continuations currently waiting in the park pool. *)

val park_capacity : t -> int
(** Current capacity of the park pool (grows by doubling, never shrinks). *)

val ring_capacity : t -> int
(** Current capacity of the ready ring. *)
