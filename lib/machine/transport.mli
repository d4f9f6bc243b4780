(** Unified message transport: typed endpoints over the network.

    Every remote interaction in the simulator — RPC stubs, migration
    hops, coherence traffic, replica updates, object moves, B-tree
    messages — is an instance of the same sequence: charge the sender
    pipeline from {!Costs}, inject a message into {!Network}, dispatch a
    handler at the destination (a fresh thread or a resumed
    continuation), and charge the receiver pipeline.  [Transport] is the
    single home for that sequence; higher layers declare {e typed
    message kinds}, register per-processor handlers ({e endpoints}), and
    send through {!post}/{!call}/{!migrate} instead of hand-rolling the
    pipeline around raw [Network.send] (which the [raw-send] lint now
    forbids outside [lib/machine]).

    The transport is {e digest-preserving} by construction: with fault
    injection off it charges exactly the cycles, schedules exactly the
    events, and touches exactly the machine statistics of the hand-rolled
    code it replaced.  Its own delivery accounting therefore lives in a
    {e transport-owned} registry ({!stats}) rather than the machine's:
    machine counters feed the run digest that [repro selfcheck] compares,
    so the new counters must not appear there.

    On top of the unified path sits deterministic, seed-driven {e fault
    injection} (drop / duplicate / extra delay, per-kind probabilities,
    default off) and a {!check_all_delivered} sanitizer asserting that
    every non-dropped post was delivered. *)

open Cm_engine

type t
(** One transport instance, shared by all subsystems of a machine
    (see [Machine.transport]). *)

val create :
  sim:Sim.t ->
  costs:Costs.t ->
  net:Network.t ->
  procs:Processor.t array ->
  spawn:(on:int -> unit Thread.t -> unit) ->
  t
(** [create ~sim ~costs ~net ~procs ~spawn] is a transport sending
    over [net] and starting handler threads through [spawn] (the
    machine's deterministic spawner, so handler threads draw tids and rng
    streams exactly as directly-spawned ones do). *)

(** {1 Message kinds and endpoints} *)

(** How reception is charged when a handler is dispatched. *)
type recv =
  | Recv_pipeline
      (** The handler thread first pays
          [Costs.recv_pipeline ~words ~new_thread:true] sized by the
          message — the normal case, and the default. *)
  | Recv_bare
      (** The handler pays its own reception cost (e.g. the B-tree's
          node-initialization work, or protocol controllers that account
          latency themselves). *)

type 'a kind
(** A typed message kind: a pre-interned {!Network.kind} (so the
    per-message path never touches a string-keyed table), its delivery
    counters, and one handler slot per processor for payloads of type
    ['a]. *)

val kind : t -> ?recv:recv -> string -> 'a kind
(** [kind t name] declares a kind labelled [name] ([recv] defaults to
    {!Recv_pipeline}).  The network-level kind and the delivery counters
    are shared among all declarations of the same [name] (traffic
    attribution is per label); the handler table is per declaration, so
    independent subsystem instances can carry differently-typed payloads
    under one label. *)

val kind_name : _ kind -> string
(** The label [kind] was declared under. *)

val account_delivered : _ kind -> pid:int -> unit
(** Bump [kind]'s delivered counter and processor [pid]'s endpoint
    tally — the arrival-side accounting of {!migrate_f}'s chain, for
    callers that start migrations with {!launch}. *)

module Endpoint : sig
  val register : t -> proc:int -> kind:'a kind -> ('a -> unit Thread.t) -> unit
  (** [register t ~proc ~kind h] installs [h] as processor [proc]'s
      handler for [kind]: a message dispatched there starts a fresh
      thread running [h payload] (after the {!Recv_pipeline} charge, if
      any).  Re-registration replaces the previous handler. *)

  val register_all : t -> kind:'a kind -> ('a -> unit Thread.t) -> unit
  (** [register_all t ~kind h] installs [h] on every processor. *)

  val delivered : kind:_ kind -> proc:int -> int
  (** Messages of [kind] delivered at endpoint [proc] (through this
      declaration of the kind). *)
end

(** {1 Sending}

    The monadic operations run inside a thread and charge the sender
    pipeline on its CPU; the raw operations inject immediately (from
    event context — protocol controllers and steps that already paid
    the sender pipeline). *)

val post : t -> 'a kind -> dst:int -> words:int -> 'a -> unit Thread.t
(** [post t k ~dst ~words v] charges [Costs.send_pipeline ~words], sends
    one [k] message and continues; on delivery, [dst]'s endpoint runs in
    a fresh handler thread.  One-way — fire and forget. *)

val notify : t -> _ kind -> dst:int -> words:int -> (unit -> unit) -> unit Thread.t
(** [notify t k ~dst ~words f] charges the sender pipeline and sends a
    message whose delivery runs [f] directly from the network event — no
    handler thread.  Used for replies that resume a blocked caller (the
    caller charges its own reception, cf. [recv_pipeline
    ~new_thread:false]). *)

val notify_app : t -> _ kind -> dst:int -> words:int -> ('a -> unit) -> 'a -> unit Thread.t
(** [notify_app t k ~dst ~words f v] is [notify t k ~dst ~words (fun () ->
    f v)] without the wrapper closure: the pooled arrival frame carries
    [f] and [v] separately and applies them at delivery.  The reply path
    for resumptions that take a value (e.g. object-migration replies). *)

val call :
  t ->
  req:unit Thread.t kind ->
  reply:_ kind ->
  dst:int ->
  args_words:int ->
  result_words:int ->
  'r Thread.t ->
  'r Thread.t
(** [call t ~req ~reply ~dst ~args_words ~result_words body] is a full
    remote procedure call: charge the sender pipeline for the request,
    block, and dispatch a [req] message whose payload is the server
    computation (run [body] at [dst], then {!notify} the [reply] back,
    resuming the caller — [body] may itself migrate; the reply is sent
    from wherever it finishes).  The caller then charges reply reception
    ([recv_pipeline ~new_thread:false]) and continues with the result.
    [req]'s endpoints must run their payload (register [fun m -> m]). *)

val migrate : t -> _ kind -> dst:Processor.t -> words:int -> fresh:bool -> unit Thread.t
(** [migrate t k ~dst ~words ~fresh] ships the {e current continuation}:
    charge the sender pipeline, send one [k] message and travel with it;
    on arrival the thread requeues at [dst] and pays [recv_pipeline
    ~new_thread:fresh] once dispatched ([fresh] is false for
    short-circuit returns to a waiting frame).  No endpoint is involved —
    the payload is the thread itself.  Under fault injection only [drop]
    applies to migrations (the continuation is lost with the message and
    the thread ends at the source); duplicate/delay are ignored. *)

val migrate_f :
  t ->
  _ kind ->
  dst:Processor.t ->
  words:int ->
  fresh:bool ->
  after:(Thread.Frame.ctx -> unit) ->
  Thread.Frame.ctx ->
  unit
(** Direct-style {!migrate} for frame-path consumers: charges the sender
    pipeline, travels, and runs [after] at the destination holding the
    CPU.  Faults apply as for {!migrate}. *)

val launch :
  t ->
  _ kind ->
  dst:Processor.t ->
  words:int ->
  recv_work:int ->
  after:(Thread.Frame.ctx -> unit) ->
  Thread.Frame.ctx ->
  unit
(** The send half of {!migrate_f}, for callers that charged the sender
    pipeline themselves (the runtime's fused call sites): bump [kind]'s
    posted counter, apply the fault spec's drop decision, and
    {!Thread.Frame.travel} to [dst] as a [words]-word [kind] message,
    holding [recv_work] cycles there before [after] runs.  The caller
    accounts the arrival with {!account_delivered}. *)

(** {1 Raw operations (event context)} *)

val dispatch : t -> 'a kind -> src:int -> dst:int -> words:int -> 'a -> unit
(** [dispatch t k ~src ~dst ~words v] injects a [k] message without
    charging any sender-side cost (the caller already did, or models a
    hardware source); delivery starts [dst]'s endpoint handler as in
    {!post}.  Raises if no handler is registered at [dst] when the
    message arrives. *)

val signal : t -> _ kind -> src:int -> dst:int -> words:int -> (unit -> unit) -> unit
(** [signal t k ~src ~dst ~words f] injects a message whose delivery
    runs [f] directly from the network event, as {!notify} but without
    the sender-pipeline charge. *)

val signal_app : t -> _ kind -> src:int -> dst:int -> words:int -> ('a -> unit) -> 'a -> unit
(** [signal_app t k ~src ~dst ~words f v] is [signal] of [fun () -> f v]
    without allocating the wrapper: the pooled arrival frame carries [f]
    and [v] separately. *)

val inject : t -> _ kind -> src:int -> dst:int -> words:int -> int
(** [inject t k ~src ~dst ~words] injects a payload-only message (the
    delivery itself is a no-op) and returns its wire latency — for
    protocol controllers that apply state changes at issue time and
    account latency themselves (the coherence protocol). *)

(** {1 Fault injection}

    Deterministic and seed-driven: equal seeds and equal traffic yield
    equal fault decisions.  Default off — with no configuration the send
    path draws no random numbers and schedules no extra events, so run
    digests are untouched. *)

type fault = {
  drop : float;  (** probability the message vanishes in transit *)
  duplicate : float;  (** probability it is delivered a second time *)
  delay : float;  (** probability delivery is delayed by [delay_cycles] *)
  delay_cycles : int;  (** extra delivery delay when the [delay] fault fires *)
}

val no_fault : fault
(** All probabilities zero. *)

val configure_faults : t -> seed:int -> (string * fault) list -> unit
(** [configure_faults t ~seed specs] arms fault injection for the kinds
    named in [specs] (by label; kinds not listed are unaffected).
    Decisions are drawn from a fresh generator seeded with [seed], in
    send order — same seed, same workload ⇒ same faults.  Replaces any
    previous configuration.  Raises [Invalid_argument] naming the kind
    and field when a probability is not in [\[0, 1\]] (nan included) or
    [delay_cycles] is negative.

    Faults run on the same thread engine as fault-free runs.  A
    duplicated or late reply fires its caller's resumption a second
    time; the thread layer discards it (see {!Thread.await}), or raises
    {!Check.Violation} under [Check]. *)

val clear_faults : t -> unit
(** Disarm fault injection (restores the zero-overhead path). *)

val faults_active : t -> bool

val cancel_pending_delays : t -> int
(** [cancel_pending_delays t] revokes every fault-delayed delivery that
    is still waiting out its extra delay (the delay leg is a cancellable
    {!Sim.timer}) and returns how many were cancelled.  Each cancelled
    delivery is accounted as dropped, keeping {!inflight} and
    {!check_all_delivered} consistent — the hook timeout/retry logic
    builds on. *)

val pending_delays : t -> int
(** Fault-delayed deliveries still waiting out their extra delay: a
    delay timer forgets itself when it fires, so once every delayed
    delivery has arrived this is 0. *)

(** {1 Delivery accounting}

    Counters live in a transport-owned {!Stats.t} registry under
    [xport.<kind>.{posted,delivered,dropped,duplicated,delayed}] —
    deliberately {e not} the machine's registry, which feeds the run
    digests compared by [repro selfcheck]. *)

val stats : t -> Stats.t
(** The transport's own counter registry. *)

val posted : t -> string -> int
(** Messages of kind [name] accepted for sending (including ones later
    dropped). *)

val delivered : t -> string -> int
(** Deliveries of kind [name] (a duplicated message delivers twice). *)

val dropped : t -> string -> int

val inflight : t -> string -> int
(** [posted + duplicated - delivered - dropped] for kind [name] — the
    messages still in the network (or lost by a bug). *)

val inflight_total : t -> int
(** Sum of {!inflight} over every declared kind. *)

val check_all_delivered : t -> unit
(** Sanitizer: raises {!Check.Violation} naming the first kind whose
    {!inflight} is non-zero — every non-dropped post must eventually be
    delivered.  Call it after a run has drained (a horizon-stopped run
    legitimately has messages in flight). *)
