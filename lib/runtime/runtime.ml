open Cm_engine
open Cm_machine
open Thread.Infix

(* Counter handles and message kinds are resolved once here — every
   annotated access counts and sends, so per-call string interning would
   sit on the hot path.  A counter is listed only once written (see
   Stats), so resolving them here leaves the report digests as they
   were.  All traffic flows through the machine's [Transport]: the RPC
   request carries the server computation as its payload, and
   migrations ship the current continuation. *)
type t = {
  machine : Machine.t;
  tp : Transport.t;
  rpc_calls_c : Stats.counter;
  migrations_c : Stats.counter;
  local_calls_c : Stats.counter;
  scope_returns_c : Stats.counter;
  residual_fetches_c : Stats.counter;
  thread_migrations_c : Stats.counter;
  rpc_k : unit Thread.t Transport.kind;
  rpc_reply_k : unit Transport.kind;
  migrate_k : unit Transport.kind;
  migrate_return_k : unit Transport.kind;
  thread_migrate_k : unit Transport.kind;
}

type access = Rpc | Migrate

let create machine =
  let s = machine.Machine.stats in
  let tp = Machine.transport machine in
  let rpc_k = Transport.kind tp "rpc" in
  (* RPC requests carry the server stub as their payload; every
     processor can serve one. *)
  Transport.Endpoint.register_all tp ~kind:rpc_k (fun server -> server);
  {
    machine;
    tp;
    rpc_calls_c = Stats.counter s "rt.rpc_calls";
    migrations_c = Stats.counter s "rt.migrations";
    local_calls_c = Stats.counter s "rt.local_calls";
    scope_returns_c = Stats.counter s "rt.scope_returns";
    residual_fetches_c = Stats.counter s "rt.residual_fetches";
    thread_migrations_c = Stats.counter s "rt.thread_migrations";
    rpc_k;
    rpc_reply_k = Transport.kind tp "rpc_reply";
    migrate_k = Transport.kind tp "migrate";
    migrate_return_k = Transport.kind tp "migrate_return";
    thread_migrate_k = Transport.kind tp "thread_migrate";
  }

let machine t = t.machine

let transport t = t.tp

let access_name = function Rpc -> "rpc" | Migrate -> "migrate"

let costs t = t.machine.Machine.costs

(* The one RPC issue step: every remote procedure call the runtime
   makes, generic or method-site, counts and sends here.  Saturated, so
   a caller passing [c k] builds no closure. *)
let rpc_call t ~dst ~args_words ~result_words body c k =
  Stats.Counter.incr t.rpc_calls_c;
  Transport.call t.tp ~req:t.rpc_k ~reply:t.rpc_reply_k ~dst ~args_words ~result_words body c k

(* An annotated access: the forwarding check, the three-way branch, and
   the migration all run over the thread's frame slots.  The locality
   check happens on every annotated call, whatever the mechanism — it is
   not an extra cost of migration (paper S3.2).  [body] parks in v3 (the
   consumer slot — the transport chain under the migration only touches
   v0..v2/i1..i2); a migrated body runs at the home after arrival. *)
let rt_body_step c =
  let body : Obj.t Thread.t = Thread.Frame.getv3 c in
  body c (Thread.Frame.take_k c)

let rt_call_step c =
  let t : t = Thread.Frame.getv0 c in
  let packed = Thread.Frame.geti1 c in
  let home = packed lsr 1 in
  if Processor.id (Thread.Frame.proc c) = home then begin
    Stats.Counter.incr t.local_calls_c;
    rt_body_step c
  end
  else if packed land 1 = 0 then
    rpc_call t ~dst:home ~args_words:(Thread.Frame.geti2 c) ~result_words:(Thread.Frame.geti3 c)
      (Thread.Frame.getv3 c) c (Thread.Frame.take_k c)
  else begin
    Stats.Counter.incr t.migrations_c;
    Transport.migrate_f t.tp t.migrate_k
      ~dst:(Machine.proc t.machine home)
      ~words:(Thread.Frame.geti2 c) ~fresh:true ~after:rt_body_step c
  end

(* Saturated ([c k] explicit) so an 8-argument application compiles to a
   direct call with no intermediate closure; partial applications still
   yield an ordinary ['r Thread.t]. *)
let call t ~access ~home ~args_words ~result_words body c k =
  Thread.Frame.save_k c k;
  Thread.Frame.setv0 c t;
  Thread.Frame.setv3 c body;
  Thread.Frame.seti1 c ((home lsl 1) lor (match access with Migrate -> 1 | Rpc -> 0));
  Thread.Frame.seti2 c args_words;
  Thread.Frame.seti3 c result_words;
  Thread.Frame.hold_then c (costs t).Costs.forwarding_check rt_call_step

(* The static call site, kept only for the benchmark harness: a static
   site is the generic [call], bound once. *)
type 'r site = 'r Thread.t

let site t ~access ~home ~args_words ~result_words body =
  call t ~access ~home ~args_words ~result_words body

let site_call s = s

let scope_done_step c =
  let r : Obj.t = Thread.Frame.getv3 c in
  Thread.Frame.call_k c r

(* The one return step: an activation that migrated away sends its
   result [r] to the caller frame waiting at [origin] (the continuation
   parked in the frame) — a single message however many hops the
   activation made. *)
let return_home t ~origin ~words c r =
  Stats.Counter.incr t.scope_returns_c;
  Thread.Frame.setv3 c r;
  Transport.migrate_f t.tp t.migrate_return_k ~dst:origin ~words ~fresh:false
    ~after:scope_done_step c

let scope t ?(at_base = false) ~result_words body =
 fun c k ->
  let origin = Thread.Frame.proc c in
  body c (fun r ->
      if at_base || Processor.id (Thread.Frame.proc c) = Processor.id origin then k r
      else begin
        Thread.Frame.save_k c k;
        return_home t ~origin ~words:result_words c r
      end)

(* --- per-object method sites ----------------------------------------

   A {e method site} fuses a whole (object-class, method) pair over the
   flat object store: the body, the mechanism, the interned network
   kind, and every cost are resolved once at construction, while the
   home is one Bigarray load from the store's home table per call — so
   objects keep a mutable home ([Objspace.move]) and the very next call
   lands at the new one.  A steady-state invocation writes the frame's
   method-site registers (m0=object id, m1/m2=int operands, m3=resolved
   home, m4=scope origin), pays the forwarding check, and walks static
   steps: the whole call/migrate/return cycle allocates nothing.  A static object (a
   counting-network balancer) is simply an object that never moves.

   The body contract: [frame_body] runs at the object's home with the
   CPU held, reads its operands through [msite_obj]/[msite_arg_a]/
   [msite_arg_b] (state via the object store), may suspend only through
   [Thread.Frame.hold_then]-style steps, and must end with exactly one
   [msite_finish].  It owns the m-lane for the duration and must not
   start another method-site call.  The one body serves every arm: a
   local or migrated call runs it on the caller's own context, and an
   RPC runs it on the server thread's context at the home (see
   [msite_serve]).

   Event, counter, and cost sequences replay [scope]([call]) exactly, so
   run digests cannot tell a fused call from a generic one. *)
type 'r msite = {
  m_rt : t;
  m_migrate : bool;
  m_space : Obj.t Objspace.t;
  m_args_words : int;
  m_result_words : int;
  m_fc : int;  (* forwarding-check cycles *)
  m_send : int;  (* send-pipeline cycles for [m_args_words] *)
  m_recv : int;  (* fresh-thread receive-pipeline cycles, ditto *)
  m_frame_body : Thread.Frame.ctx -> unit;
}

(* [?cps_body] is ignored: the RPC arm runs [frame_body] too.  It stays
   only so the benchmark harness, which still passes one, compiles. *)
let msite ?cps_body:_ rt ~access ~space ~args_words ~result_words ~frame_body =
  let cst = costs rt in
  {
    m_rt = rt;
    m_migrate = (match access with Migrate -> true | Rpc -> false);
    m_space = space;
    m_args_words = args_words;
    m_result_words = result_words;
    m_fc = cst.Costs.forwarding_check;
    m_send = Costs.send_pipeline cst ~words:args_words;
    m_recv = Costs.recv_pipeline cst ~words:args_words ~new_thread:true;
    m_frame_body = frame_body;
  }

let msite_obj c = Thread.Frame.getm0 c

let msite_arg_a c = Thread.Frame.getm1 c

let msite_arg_b c = Thread.Frame.getm2 c

(* The migration has landed (same event as [Transport.mig_done_step]):
   account the delivery, then run the fused body where the object is. *)
let msite_arrived_step c =
  let ms : Obj.t msite = Thread.Frame.getms c in
  Transport.account_delivered ms.m_rt.migrate_k;
  ms.m_frame_body c

let msite_send_step c =
  let ms : Obj.t msite = Thread.Frame.getms c in
  let rt = ms.m_rt in
  Transport.launch rt.tp rt.migrate_k
    ~dst:(Machine.proc rt.machine (Thread.Frame.getm3 c))
    ~words:ms.m_args_words ~recv_work:ms.m_recv ~after:msite_arrived_step c

(* The RPC server stub, run by the server thread at the home: load the
   call into that thread's own m-lane, with origin -1 so [msite_finish]
   hands the result to the server continuation (which sends the reply),
   and run the frame body there.  Each copy of a duplicated request runs
   on its own server thread, with its own operands. *)
let msite_serve ms ~obj ~a ~b c k =
  Thread.Frame.save_k c k;
  Thread.Frame.set_mlane c ms obj a b (Processor.id (Thread.Frame.proc c)) (-1);
  ms.m_frame_body c

let msite_call_step c =
  let ms : Obj.t msite = Thread.Frame.getms c in
  let home = Thread.Frame.getm3 c in
  if Processor.id (Thread.Frame.proc c) = home then begin
    Stats.Counter.incr ms.m_rt.local_calls_c;
    ms.m_frame_body c
  end
  else if ms.m_migrate then begin
    Stats.Counter.incr ms.m_rt.migrations_c;
    Thread.Frame.hold_then c ms.m_send msite_send_step
  end
  else
    rpc_call ms.m_rt ~dst:home ~args_words:ms.m_args_words ~result_words:ms.m_result_words
      (* lint: allow hot-alloc the request carries an immutable (site, obj, a, b) stub — one closure per *remote* call *)
      (msite_serve ms ~obj:(Thread.Frame.getm0 c) ~a:(Thread.Frame.getm1 c)
         ~b:(Thread.Frame.getm2 c))
      c (Thread.Frame.take_k c)

(* The home resolves at entry — before the forwarding-check hold, like
   the generic path resolves it before [call]'s — so a concurrent
   [Objspace.move] firing during the hold is seen by the same calls
   under either path. *)
let msite_enter ms ~scoped ~obj ~a ~b c k =
  Thread.Frame.save_k c k;
  Thread.Frame.set_mlane c ms obj a b
    (Objspace.home ms.m_space (Objspace.id_of_int obj))
    (if scoped then Processor.id (Thread.Frame.proc c) else -1);
  Thread.Frame.hold_then c ms.m_fc msite_call_step

let msite_finish c r =
  let origin = Thread.Frame.getm4 c in
  if origin < 0 || Processor.id (Thread.Frame.proc c) = origin then Thread.Frame.call_k c r
  else begin
    let ms : Obj.t msite = Thread.Frame.getms c in
    let rt = ms.m_rt in
    return_home rt ~origin:(Machine.proc rt.machine origin) ~words:ms.m_result_words c r
  end

(* Tail re-entry from inside [frame_body]: the same site's next call,
   issued where the body runs.  It reloads the m-lane for [obj] but
   keeps the parked continuation and the scope origin, so it is one more
   transition of the same activation: under [Migrate] the next hop;
   under [Rpc] from a server thread a nested RPC whose reply feeds that
   server's continuation; a local call runs the body again in place.
   Events and counters are those of the generic [call] in tail
   position. *)
let msite_next c ~obj ~a ~b =
  let ms : Obj.t msite = Thread.Frame.getms c in
  Thread.Frame.set_mlane c ms obj a b
    (Objspace.home ms.m_space (Objspace.id_of_int obj))
    (Thread.Frame.getm4 c);
  Thread.Frame.hold_then c ms.m_fc msite_call_step

let msite_call ms ~obj ~a ~b c k = msite_enter ms ~scoped:false ~obj ~a ~b c k

let msite_scoped ms ~obj ~a ~b c k = msite_enter ms ~scoped:true ~obj ~a ~b c k

(* Partial-activation support (paper S6): an activation that migrated
   carrying only part of its live state pulls the rest from its origin
   with one round trip.  Serving the fetch costs the origin's CPU a
   handler dispatch plus the copy. *)
let fetch_residual t ~origin ~words =
  let c = costs t in
  let* p = Thread.proc in
  if Processor.id p = origin then Thread.return ()
  else begin
    Stats.Counter.incr t.residual_fetches_c;
    Thread.ignore_m
      (rpc_call t ~dst:origin ~args_words:2 ~result_words:words
         (Thread.compute (Costs.copy_packet c ~words)))
  end

let residual_fetches t = Stats.Counter.get t.residual_fetches_c

(* Whole-thread migration (paper S2.3): ship the thread's entire stack,
   permanently relocating it.  No scope bookkeeping applies — there is
   no caller frame left behind. *)
let migrate_thread t ~dst ~stack_words =
  let* p = Thread.proc in
  if Processor.id p = dst then Thread.return ()
  else begin
    Stats.Counter.incr t.thread_migrations_c;
    Transport.migrate t.tp t.thread_migrate_k
      ~dst:(Machine.proc t.machine dst)
      ~words:stack_words ~fresh:true
  end

let thread_migrations t = Stats.Counter.get t.thread_migrations_c

let migrations t = Stats.Counter.get t.migrations_c

let rpc_calls t = Stats.Counter.get t.rpc_calls_c

let local_calls t = Stats.Counter.get t.local_calls_c
