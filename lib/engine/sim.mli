(** Discrete-event simulation core.

    A simulator owns a virtual clock (integer cycles) and a queue of pending
    events.  Events scheduled for the same cycle fire in scheduling order,
    making every run deterministic.  The clock only advances when the next
    event is strictly later than the current time — there is no real-time
    component.

    The queue is a calendar queue: a timing wheel of per-cycle FIFO buckets
    covering the near future, with a binary-heap overflow rung for events
    beyond the wheel's window.  Near-future insert and extract — the
    steady state of every simulated machine — are O(1), and event records
    are pooled and recycled on fire, so scheduling through a registered
    {!handler} allocates nothing per event.  Extraction order is strict
    (time, scheduling-seq) order, exactly what the previous binary-heap
    queue produced, so run digests are unchanged (see DESIGN.md §13). *)

type t
(** A simulator instance. *)

val create : ?wheel_bits:int -> unit -> t
(** [create ()] is a fresh simulator with the clock at cycle 0 and no
    pending events.  [wheel_bits] (default 8) sizes the calendar wheel at
    [2^wheel_bits] one-cycle buckets; events scheduled further than that
    past the last extraction point go to the overflow rung until the wheel
    rotates forward.  Raises [Invalid_argument] outside [1..22]. *)

val now : t -> int
(** [now t] is the current cycle. *)

(** {1 Closure events} *)

val at : t -> int -> (unit -> unit) -> unit
(** [at t time f] schedules [f] to run at absolute cycle [time].  Raises
    [Invalid_argument] if [time] is in the past.  The event record is
    pooled; only [f] itself is caller-allocated. *)

val after : t -> int -> (unit -> unit) -> unit
(** [after t delay f] schedules [f] to run [delay >= 0] cycles from now. *)

(** {1 Pooled handler events}

    Hot senders register a handler once and then schedule occurrences of
    it with an immediate-int argument: no closure, no event-record
    allocation — the entire schedule/fire cycle reuses pooled storage.
    Handler events interleave with closure events in the same strict
    (time, seq) order. *)

type hid
(** A handler registered with one simulator. *)

val handler : t -> (int -> unit) -> hid
(** [handler t f] registers [f] in [t]'s handler table (typically once,
    at subsystem construction) and returns its id. *)

val handler_count : t -> int
(** [handler_count t] is the number of handlers ever registered with [t]
    (slots are never freed, so this is also the table's size). *)

val nil_handler : hid
(** A handler id registered with no simulator, for initializing slots
    before the real registration happens (knot-tying constructors).
    Posting it raises [Invalid_argument]. *)

val post : t -> time:int -> hid -> int -> unit
(** [post t ~time h arg] schedules handler [h] to run with [arg] at
    absolute cycle [time].  Raises [Invalid_argument] if [time] is in the
    past or [h] was not registered with [t]. *)

val post_after : t -> delay:int -> hid -> int -> unit
(** [post_after t ~delay h arg] is {!post} at [now t + delay >= now t]. *)

(** {1 Cancellable timers} *)

type token
(** Names one scheduled timer occurrence.  Tokens are immediate ints
    (slot + generation); a token outlives its event harmlessly — once the
    event has fired or been cancelled, {!cancel} returns [false]. *)

val timer : t -> delay:int -> hid -> int -> token
(** [timer t ~delay h arg] schedules handler [h] with [arg] like
    {!post_after} and returns a token that can cancel it.  O(1), and
    pooled like every handler event: arming a timer allocates nothing.
    Raises [Invalid_argument] if [delay] is negative or [h] was not
    registered with [t]. *)

val cancel : t -> token -> bool
(** [cancel t tok] prevents the timer named by [tok] from firing: [true]
    if it was still pending (it is tombstoned in place, O(1), and its
    pooled slot recycled lazily), [false] if it already fired or was
    already cancelled.  A cancelled event does not fire, does not count
    in {!events_fired}, and does not advance the clock. *)

val pending : t -> int
(** [pending t] is the number of events not yet fired (cancelled events
    excluded). *)

exception Stop
(** Raised by an event handler to end the run immediately (the remaining
    events stay queued but are not fired). *)

val run : ?until:int -> t -> unit
(** [run ?until t] fires events in order until the queue is empty, a
    handler raises {!Stop}, or the next event is later than [until].  When
    stopping because of [until], the clock is left at [until] and later
    schedules before [until] are rejected as in the past. *)

val step : t -> bool
(** [step t] fires exactly one event; [false] if the queue was empty. *)

val events_fired : t -> int
(** [events_fired t] is the total number of events executed so far. *)
