(** Simulated lightweight threads.

    A thread is a value of type ['a t] — a computation in
    continuation-passing style over a mutable thread context.  The
    continuation is a first-class OCaml value, which is exactly the piece
    of state that computation migration ships between processors: the
    {!travel_k} primitive sends the current continuation to another
    processor, where it resumes with the context's processor rebound.

    Threads cooperate with the processor model: a running thread owns its
    CPU between dispatch and the next blocking point ({!await}, {!sleep},
    {!travel_k}, or termination); {!compute} advances simulated time while
    keeping the CPU. *)

open Cm_engine

type ctx
(** A thread's identity and current location, plus its reusable
    continuation frame (see {!Frame}). *)

(** {1 The engine}

    A thread's blocking points are defunctionalized into pooled
    per-thread frame slots (see {!Frame}): holds, travels and requeues
    allocate nothing in the steady state.  Sanitizers ([Check]) and
    transport fault injection run on the same engine.  Every resumption
    handed out of the thread layer ({!await}, {!stall}, {!Frame.resume},
    {!Frame.stall_k}) carries its suspension's {e generation}: it runs
    only if its suspension is still pending, so a resumption that fires
    a second time — a duplicated or late RPC reply under fault
    injection — is discarded, and under [Check] raises
    {!Cm_engine.Check.Violation} instead.  A context's generation only
    increases, recycling included. *)

type engine
(** The per-machine thread state: the pool of recycled contexts. *)

val create_engine : unit -> engine
(** A fresh engine with an empty context pool. *)

val contexts_created : engine -> int
(** Thread contexts allocated so far by spawns on this engine.  An
    exited thread's context is recycled for the next spawn on the same
    machine, so after warm-up this stays at the peak number of live
    threads. *)

val contexts_pooled : engine -> int
(** Recycled contexts currently waiting for a spawn. *)

type 'a t = ctx -> ('a -> unit) -> unit
(** A computation producing an ['a], parameterized by the thread context
    and its continuation. *)

(** {1 Monad} *)

val return : 'a -> 'a t

module Infix : sig
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
  val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t
end

(** {1 Context access} *)

val tid : int t
(** The thread's identifier (unique per spawn within a machine). *)

val proc : Processor.t t
(** The processor the thread is currently running on. *)

val rng : Rng.t t
(** The thread's private random stream.  It belongs to the thread: an
    exited thread's context, stream included, is reseeded for a later
    thread, so the stream must not be used after its thread exits. *)

(** {1 Time and scheduling} *)

val compute : int -> unit t
(** [compute n] spends [n] cycles of CPU work on the current processor. *)

val yield : unit t
(** [yield] releases the CPU and requeues the thread at the back of the
    current processor's ready queue. *)

val sleep : int -> unit t
(** [sleep n] releases the CPU for at least [n] cycles, then requeues the
    thread (used for think times and lock backoff). *)

val await : (resume:('a -> unit) -> unit) -> 'a t
(** [await register] blocks the thread: [register ~resume] is called with a
    resumption function and must arrange for [resume v] to be invoked by a
    later simulation event (never synchronously); the CPU is released in
    the meantime and the thread continues with [v] on its original
    processor once re-dispatched.  Only the first invocation of [resume]
    counts: a later one is discarded (a {!Cm_engine.Check.Violation}
    under [Check], labelled [tid N: Thread.await resume]). *)

val stall : (resume:('a -> unit) -> unit) -> 'a t
(** [stall register] is like {!await} except that the CPU is {e not}
    released: the processor stalls (as on a cache miss in a
    non-multithreaded machine) until [resume v] is invoked by a later
    simulation event, and the stalled cycles are charged as busy time.
    The continuation runs directly from the resuming event.  [resume] is
    one-shot, as for {!await} (label [Thread.stall resume]). *)

val travel_k :
  net:Network.t ->
  dst:Processor.t ->
  words:int ->
  kind:Network.kind ->
  recv_work:int ->
  unit t
(** [travel_k ~net ~dst ~words ~kind ~recv_work] migrates the thread's
    continuation to [dst]: one [kind] message of [words] payload words is
    sent, the source CPU is released, and on delivery the continuation
    queues at [dst], paying [recv_work] cycles of receive-pipeline work
    once dispatched.  After [travel_k], {!proc} is [dst].  A no-op message
    is still sent when [dst] is the current processor (callers should
    test locality first — the runtime's forwarding check does).  The
    kind is interned once by the caller ({!Network.kind}), not per
    message. *)

(** {1 Spawning} *)

val spawn :
  tid:int ->
  split:Rng.t ->
  ?on_exit:('a -> unit) ->
  engine:engine ->
  Processor.t ->
  'a t ->
  unit
(** [spawn ~tid ~engine proc body] creates thread [tid] and queues it on
    [proc].  When [body] finishes with value [v], [on_exit v] runs and
    the CPU is released.  [tid] is required: thread numbering is owned
    by the machine instance ({!Machine.spawn} numbers from a
    per-machine counter), never by process-global state, so tids — and
    the default per-thread RNG seeds derived from them — restart at
    every [Machine.create] and cannot bleed across runs or domains.
    The thread's stream is the next [Rng.split split].  [engine] is the
    context pool to draw from and recycle into; [Machine.spawn] passes
    its machine's engine, so exited threads' contexts are recycled per
    machine (see {!contexts_created}).  An engine belongs to one machine: its
    recycled contexts hold handler ids of that machine's simulator. *)

(** {1 Combinators} *)

val iter_list : ('a -> unit t) -> 'a list -> unit t
(** [iter_list f xs] runs [f] on each element in order. *)

val repeat : int -> (int -> unit t) -> unit t
(** [repeat n f] runs [f 0], ..., [f (n-1)] in order. *)

val while_ : (unit -> bool) -> unit t -> unit t
(** [while_ cond body] runs [body] as long as [cond ()] holds.  [body]
    must contain at least one time-advancing operation, or the simulation
    would loop at the current instant. *)

val while_ctx : (ctx -> bool) -> unit t -> unit t
(** [while_ctx cond body] is {!while_} with the condition given the
    thread's context, so it can consult the thread's current processor
    ({!Frame.proc}).  As with a [while_] whose condition held at
    construction, the first iteration runs unconditionally. *)

val ignore_m : 'a t -> unit t
(** [ignore_m m] runs [m] and discards its result. *)

(** {1 The frame calling convention}

    Direct-style access to a thread's continuation frame, for the
    transport layer and its consumers (runtime, object migration, the
    shared-memory controllers) to build zero-allocation suspension
    chains.  A {e step} is a statically-allocated [ctx -> unit] (or
    [ctx -> Obj.t -> unit]) function reading its operands from the frame
    slots; suspending stores the step and operands and hands the
    scheduler one of the two closures preallocated at spawn.

    Discipline (DESIGN.md §15): slots are only valid across {e one}
    suspension — every step must read what it needs into locals before
    starting the next blocking operation.  [v0..v2]/[i1..i2]/[after2]
    belong to the transport chain in flight, [v3]/[i3] to the consumer
    that initiated it.  Value slots are [Obj]-packed: a [setvN]/[getvN]
    pair must agree on the type, exactly as {!Processor.enqueue_app}
    pairs a continuation with its argument. *)

module Frame : sig
  type nonrec ctx = ctx

  val proc : ctx -> Processor.t
  (** The thread's current processor. *)

  val save_k : ctx -> ('a -> unit) -> unit
  (** Park the operation's final continuation in the frame. *)

  val take_k : ctx -> (Obj.t -> unit)
  (** Read back the parked continuation (to apply it to a value of the
      type it was saved with). *)

  val call_k : ctx -> 'a -> unit
  (** Apply the parked continuation. *)

  val setv0 : ctx -> 'v -> unit
  val setv1 : ctx -> 'v -> unit
  val setv2 : ctx -> 'v -> unit
  val setv3 : ctx -> 'v -> unit
  val getv0 : ctx -> 'v
  val getv1 : ctx -> 'v
  val getv2 : ctx -> 'v
  val getv3 : ctx -> 'v
  val seti1 : ctx -> int -> unit
  val seti2 : ctx -> int -> unit
  val seti3 : ctx -> int -> unit
  val geti1 : ctx -> int
  val geti2 : ctx -> int
  val geti3 : ctx -> int

  (** {2 The method-site lane}

      Registers for fused per-object calls ({!Cm_runtime.Runtime.Msite}
      and the direct frame paths in [Objmig]/[Replicate]): five int
      operands [m0..m4], the site record slot [ms], and one boxed
      operand slot [mv].  The lane is disjoint from every slot above and
      survives {!travel_k} and the transport chains, so a fused call's
      operands ride through its own migration.  A method-site body owns
      the lane from entry to finish and must not start another
      method-site call meanwhile (nest through the generic {!t} monad
      instead). *)

  val setm0 : ctx -> int -> unit
  val setm1 : ctx -> int -> unit
  val setm2 : ctx -> int -> unit
  val setm3 : ctx -> int -> unit
  val setm4 : ctx -> int -> unit
  val getm0 : ctx -> int
  val getm1 : ctx -> int
  val getm2 : ctx -> int
  val getm3 : ctx -> int
  val getm4 : ctx -> int
  val set_mlane : ctx -> 'v -> int -> int -> int -> int -> int -> unit
  (** [set_mlane c ms m0 m1 m2 m3 m4] writes [ms] and [m0..m4] in one
      call — how a method-site call loads the lane. *)

  val setms : ctx -> 'v -> unit
  val getms : ctx -> 'v
  val setmv : ctx -> 'v -> unit
  val getmv : ctx -> 'v

  (** {2 The int stack}

      A per-context stack of ints for a frame body whose activation
      keeps a path across hops (the B-tree insert pushes each node it
      descends from, to absorb a child's split on the way back).  It
      belongs to the body that pushed, survives {!travel_k}, and is pooled
      with the context: it grows on demand, and recycling empties it
      but keeps its array, so steady-state pushes allocate nothing. *)

  val push : ctx -> int -> unit
  val pop : ctx -> int
  (** Remove and return the top.  Raises [Invalid_argument] when empty. *)

  val top : ctx -> int
  (** The top, left in place.  Raises [Invalid_argument] when empty. *)

  val depth : ctx -> int
  (** Number of ints on the stack. *)

  val rng : ctx -> Rng.t
  (** The thread's private random stream, read directly —
      the direct-style equivalent of the {!Cm_machine.Thread.rng}
      monad. *)

  val set_after2 : ctx -> (ctx -> unit) -> unit
  (** Park a completion step surviving a whole transport operation
      (e.g. what to run once a migration has landed). *)

  val run_after2 : ctx -> unit

  val hold_then : ctx -> int -> (ctx -> unit) -> unit
  (** [hold_then c n step] charges [n] CPU cycles at the current
      processor, then runs [step c], still holding the CPU — the frame
      equivalent of [let* () = compute n in step ()]. *)

  val enqueue_then : ctx -> (ctx -> unit) -> unit
  (** [enqueue_then c step] requeues the thread at its current processor
      and runs [step c] once dispatched (CPU held) — what an {!await}
      resumption does.  For use from event context, where the CPU is not
      held. *)

  val resume : ctx -> (ctx -> Obj.t -> unit) -> ('a -> unit)
  (** [resume c step] installs [step] as the pending resumption and
      returns its one-shot resume closure, stamped with the suspension's
      generation: invoking it with [v] runs [step c v] if the suspension
      is still pending, and is discarded (a violation under [Check])
      otherwise.  The frame equivalent of an {!await} registration's
      [~resume] argument (the caller is responsible for releasing the
      CPU, as {!await} does). *)

  val stall_k : ctx -> ('a -> unit)
  (** [stall_k c] is {!resume} specialized to {!stall} semantics: the
      stalled cycles are charged as busy time when the resumption fires,
      then the continuation parked with {!save_k} runs with the value. *)

  val travel :
    net:Network.t ->
    dst:Processor.t ->
    words:int ->
    kind:Network.kind ->
    recv_work:int ->
    after:(ctx -> unit) ->
    ctx ->
    unit
  (** Frame migration: exactly {!travel_k}'s events (send, re-enqueue at
      [dst], receive-pipeline hold), with [after] running at the
      destination holding the CPU.  Releases the source CPU. *)

  val release : ctx -> unit
  (** Release the thread's current CPU (ends a dispatch segment). *)
end
