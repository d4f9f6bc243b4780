(** The Prelude-like runtime: remote access by RPC or computation
    migration.

    A remote access names a home processor and a body to execute there.
    Every access first pays the forwarding (locality) check; a local access
    then runs inline at no further cost — the paper's annotation affects
    only remote executions.  For a remote access the annotation picks the
    mechanism:

    {ul
    {- [Rpc]: the classic client/server stub pipeline.  The caller's CPU
       marshals and sends a request, the caller blocks; at the server a
       handler task is dispatched (scheduler), pays the receive pipeline
       (packet copy, thread creation, linkage, unmarshal, object-id
       translation, allocation), runs the body, then marshals and sends
       the reply; the caller pays reply reception and resumes.  Two
       messages per access; the thread never moves.}
    {- [Migrate]: computation migration.  The caller's CPU runs the same
       send pipeline, but the message carries the current activation's
       live variables — in this simulator, literally the thread's
       continuation — and the thread {e continues on the server}.  One
       message per access; subsequent accesses to objects on that
       processor are local.}}

    {!scope} delimits a migratable procedure activation: if the body ends
    on a different processor than it started (because accesses inside it
    migrated), one result message flows back to the origin, where the
    activation's caller frame lives.  A scope entered [~at_base:true]
    (the activation sits at the base of its portion of the stack, e.g. an
    RPC handler) skips that: its result is delivered wherever the thread
    ends — the paper's short-circuited return.

    Each remote job has one code path: every RPC the runtime issues
    (generic {!call}, method site, replica update, residual fetch) goes
    through one issue step, and every activation that ends away from its
    origin ({!scope}, {!msite_scoped}) sends its result home through one
    return step. *)

open Cm_machine

type t

type access = Rpc | Migrate

val create : Machine.t -> t
(** [create machine] is a runtime on [machine]. *)

val machine : t -> Machine.t

val transport : t -> Transport.t
(** The machine transport this runtime sends through (its kinds:
    ["rpc"], ["rpc_reply"], ["migrate"], ["migrate_return"],
    ["thread_migrate"]). *)

val access_name : access -> string
(** ["rpc"] or ["migrate"]. *)

val call :
  t ->
  access:access ->
  home:int ->
  args_words:int ->
  result_words:int ->
  'r Thread.t ->
  'r Thread.t
(** [call t ~access ~home ~args_words ~result_words body] performs a
    remote access to an object on [home], executing [body] there.
    [args_words] is the payload of the request (method arguments, or the
    migrating activation's live variables); [result_words] sizes the RPC
    reply ([Migrate] sends none).  After the call the thread is back on
    its original processor under [Rpc], and on [home] under [Migrate]. *)

type 'r site
(** A static call site: {!call} with its arguments bound once.  Kept
    only so the benchmark harness compiles; library code binds methods
    with {!msite} (a static object is an object that never moves). *)

val site :
  t ->
  access:access ->
  home:int ->
  args_words:int ->
  result_words:int ->
  'r Thread.t ->
  'r site
(** [site t ~access ~home ~args_words ~result_words body] is
    [call t ~access ~home ~args_words ~result_words body], unapplied. *)

val site_call : 'r site -> 'r Thread.t
(** [site_call s] performs the bound {!call}. *)

val scope : t -> ?at_base:bool -> result_words:int -> 'r Thread.t -> 'r Thread.t
(** [scope t ~result_words body] runs [body] as one procedure activation;
    see the module description.  [at_base] defaults to [false]. *)

(** {1 Per-object method sites}

    A {e method site} fuses a whole (object-class, method) pair over
    the flat object store ({!Objspace}): body, mechanism, interned
    network kind, and every cost are resolved once at construction,
    while the home is one load from the store's home table per call —
    objects keep a mutable home ([Objspace.move]) and the next call
    lands at the new one.  A steady-state invocation writes the frame's
    method-site registers and walks static steps; the whole
    call/migrate/return cycle allocates nothing.  Events, counters, and
    costs replay {!scope}({!call}) exactly, so run digests cannot tell a
    fused call from a generic one.  Sanitizers and fault injection run
    the same path.  Every call path of the library's objects goes
    through method sites; the B-tree's descents chain calls with
    {!msite_next} and use {!call} only inside split propagation. *)

type 'r msite

val msite :
  ?cps_body:(obj:int -> a:int -> b:int -> 'r Thread.t) ->
  t ->
  access:access ->
  space:Obj.t Objspace.t ->
  args_words:int ->
  result_words:int ->
  frame_body:(Thread.Frame.ctx -> unit) ->
  'r msite
(** [msite t ~access ~space ~args_words ~result_words ~frame_body] binds
    one method of one object class.  [frame_body] runs at the object's
    home with the CPU held: it reads its operands with
    {!msite_obj}/{!msite_arg_a}/{!msite_arg_b} (object state through
    [space]), may suspend only via [Thread.Frame.hold_then]-style
    steps, must end with exactly one {!msite_finish} or {!msite_next},
    and owns the frame's method-site lane for the duration (no nested
    method-site calls).  A body that steps into monadic code (a generic
    {!call}, [Replicate]) must first park the continuation
    ([Thread.Frame.take_k]), the site ([getms]) and the scope origin
    ([getm4]), and restore all three before its {!msite_finish}: that
    code overwrites them.  It is the method's only body: a local or
    migrated call runs it on the calling thread, and an [Rpc] call ships
    a small stub (site, object, operands) that loads the server thread's
    own method-site lane at the home and runs [frame_body] there; its
    {!msite_finish} sends the reply.  [cps_body] is ignored; it remains
    only so the benchmark harness, which passes one, compiles. *)

val msite_call : 'r msite -> obj:int -> a:int -> b:int -> 'r Thread.t
(** [msite_call ms ~obj ~a ~b] invokes the method on [obj] (a raw
    {!Objspace.id}) with int operands [a]/[b] — equivalent to {!call}
    of the bound body at the object's current home.  Under [Migrate]
    the thread stays at the home afterwards (wrap in a {!scope}, or use
    {!msite_scoped}). *)

val msite_scoped : 'r msite -> obj:int -> a:int -> b:int -> 'r Thread.t
(** [msite_scoped ms ~obj ~a ~b] is {!scope}({!msite_call} ...) fused:
    one isolated access that returns to the caller's processor —
    byte-identical events to the generic composition, with the scope's
    per-call return closure eliminated. *)

val msite_next : Thread.Frame.ctx -> obj:int -> a:int -> b:int -> unit
(** Inside [frame_body], instead of {!msite_finish}: a tail call of the
    same method on [obj] with operands [a]/[b], issued from where the
    body runs.  It reloads the method-site lane for [obj] (the home is
    resolved now, as the generic {!call} resolves it when issued) and
    keeps the parked continuation and the scope origin, so the
    activation's eventual {!msite_finish} still returns to the first
    caller.  Under [Migrate] it is the next hop of one migrating
    activation; under [Rpc] on a server thread it is a nested RPC whose
    reply feeds that server's continuation (the generic nesting); a
    local call runs [frame_body] again in place.  Events and counters
    are those of {!call} in tail position. *)

val msite_obj : Thread.Frame.ctx -> int
(** Inside [frame_body]: the invoked object's id. *)

val msite_arg_a : Thread.Frame.ctx -> int
(** Inside [frame_body]: the first int operand. *)

val msite_arg_b : Thread.Frame.ctx -> int
(** Inside [frame_body]: the second int operand. *)

val msite_finish : Thread.Frame.ctx -> 'r -> unit
(** Inside [frame_body]: complete the invocation with a result — runs
    the scope-return logic ({!msite_scoped}) or the caller's
    continuation ({!msite_call}).  Must be called exactly once, with
    the ['r] the site was built at. *)

val fetch_residual : t -> origin:int -> words:int -> unit Thread.t
(** [fetch_residual t ~origin ~words] supports {e partial activation
    migration} (the paper's §6): a call annotated [Migrate] may carry
    only part of its live variables (a small [args_words]); if the
    migrated continuation turns out to need the rest, it fetches the
    [words]-word residual from [origin] with one request/reply round
    trip.  Carrying less is a bet: cheaper hops when the residual is
    never touched, an extra round trip when it is (see the "partial
    migration" ablation).  A no-op when already at [origin]: nothing is
    sent and nothing is counted. *)

val migrate_thread : t -> dst:int -> stack_words:int -> unit Thread.t
(** [migrate_thread t ~dst ~stack_words] performs whole-thread migration
    (the paper's §2.3 comparison point): the entire thread — modelled as
    [stack_words] words of stack state — moves to [dst] and stays there;
    nothing returns to the source.  Provided to quantify why the
    activation is the right grain: the state moved per hop is an order
    of magnitude larger, and the thread's subsequent unrelated work
    (request loops, think time) now loads the data's processor.  A
    no-op when [dst] is the current processor: nothing is sent and
    nothing is counted. *)

(** {1 Statistics}

    Counter names used by the runtime (in the machine's registry):
    ["rt.local_calls"], ["rt.rpc_calls"], ["rt.migrations"],
    ["rt.scope_returns"], ["rt.residual_fetches"],
    ["rt.thread_migrations"]. *)

val migrations : t -> int
(** Number of activation migrations performed. *)

val thread_migrations : t -> int
(** Number of whole-thread migrations performed (a move to the current
    processor is not one). *)

val residual_fetches : t -> int
(** Number of residual-state fetches performed (a fetch at the origin is
    not one). *)

val rpc_calls : t -> int
(** Number of RPC round trips performed. *)

val local_calls : t -> int
(** Number of annotated calls that were satisfied locally. *)
