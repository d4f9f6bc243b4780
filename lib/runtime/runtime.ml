open Cm_engine
open Cm_machine
open Thread.Infix

(* Counter handles and message kinds are resolved once here — every
   annotated access counts and sends, so per-call string interning would
   sit on the hot path.  The handles bind lazily (see Stats), keeping
   the registered-counter set, and hence the report digests, identical
   to the string API.  All traffic flows through the machine's
   [Transport]: the RPC request carries the server computation as its
   payload, and migrations ship the current continuation. *)
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

let stats t = t.machine.Machine.stats

let rpc_call t ~dst ~args_words ~result_words body =
  Stats.Counter.incr t.rpc_calls_c;
  Transport.call t.tp ~req:t.rpc_k ~reply:t.rpc_reply_k ~dst ~args_words ~result_words body

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
  else if packed land 1 = 0 then begin
    Stats.Counter.incr t.rpc_calls_c;
    let body : Obj.t Thread.t = Thread.Frame.getv3 c in
    let k = Thread.Frame.take_k c in
    Transport.call t.tp ~req:t.rpc_k ~reply:t.rpc_reply_k ~dst:home
      ~args_words:(Thread.Frame.geti2 c) ~result_words:(Thread.Frame.geti3 c) body c k
  end
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

(* --- fused call sites ------------------------------------------------ *)

(* A call site binds one annotated access for repeated invocation: the
   home, the body, the mechanism, and {e every} cost the access can
   charge — forwarding check, send pipeline, fresh-thread receive
   pipeline — resolved once at construction.  A steady-state invocation
   then parks exactly two things in the thread frame (the continuation
   and the site record) and each step reads cache-hot site fields, where
   the generic [call] path re-derives costs and shuttles six slots per
   visit.  Events, counters, and their order are identical to [call]'s,
   so digests cannot tell the two apart. *)
type 'r site = {
  s_rt : t;
  s_home : int;
  s_migrate : bool;
  s_body : 'r Thread.t;
  s_args_words : int;
  s_result_words : int;
  s_dst : Processor.t;  (* the home processor, pre-resolved *)
  s_fc : int;  (* forwarding-check cycles *)
  s_send : int;  (* send-pipeline cycles for [s_args_words] *)
  s_recv : int;  (* fresh-thread receive-pipeline cycles, ditto *)
}

let site t ~access ~home ~args_words ~result_words body =
  let cst = costs t in
  {
    s_rt = t;
    s_home = home;
    s_migrate = (match access with Migrate -> true | Rpc -> false);
    s_body = body;
    s_args_words = args_words;
    s_result_words = result_words;
    s_dst = Machine.proc t.machine home;
    s_fc = cst.Costs.forwarding_check;
    s_send = Costs.send_pipeline cst ~words:args_words;
    s_recv = Costs.recv_pipeline cst ~words:args_words ~new_thread:true;
  }

(* The migration has landed (same event as [Transport.mig_done_step]):
   account the delivery, then run the body where it now is. *)
let site_arrived_step c =
  let s : Obj.t site = Thread.Frame.getv0 c in
  Transport.account_delivered s.s_rt.migrate_k ~pid:s.s_home;
  s.s_body c (Thread.Frame.take_k c)

let site_send_step c =
  let s : Obj.t site = Thread.Frame.getv0 c in
  Transport.launch s.s_rt.tp s.s_rt.migrate_k ~dst:s.s_dst ~words:s.s_args_words
    ~recv_work:s.s_recv ~after:site_arrived_step c

let site_step c =
  let s : Obj.t site = Thread.Frame.getv0 c in
  if Processor.id (Thread.Frame.proc c) = s.s_home then begin
    Stats.Counter.incr s.s_rt.local_calls_c;
    s.s_body c (Thread.Frame.take_k c)
  end
  else if s.s_migrate then begin
    Stats.Counter.incr s.s_rt.migrations_c;
    Thread.Frame.hold_then c s.s_send site_send_step
  end
  else begin
    let t = s.s_rt in
    Stats.Counter.incr t.rpc_calls_c;
    Transport.call t.tp ~req:t.rpc_k ~reply:t.rpc_reply_k ~dst:s.s_home
      ~args_words:s.s_args_words ~result_words:s.s_result_words s.s_body c
      (Thread.Frame.take_k c)
  end

let site_call (s : 'r site) : 'r Thread.t =
 fun c k ->
  Thread.Frame.save_k c k;
  Thread.Frame.setv0 c s;
  Thread.Frame.hold_then c s.s_fc site_step

let scope_done_step c =
  let r : Obj.t = Thread.Frame.getv3 c in
  Thread.Frame.call_k c r

(* If the activation migrated away, its result goes back to the caller
   frame waiting at the origin — a single message however many hops the
   activation made. *)
let scope t ?(at_base = false) ~result_words body =
 fun c k ->
  let origin = Thread.Frame.proc c in
  body c (fun r ->
      if at_base || Processor.id (Thread.Frame.proc c) = Processor.id origin then k r
      else begin
        Stats.Counter.incr t.scope_returns_c;
        Thread.Frame.save_k c k;
        Thread.Frame.setv3 c r;
        Transport.migrate_f t.tp t.migrate_return_k ~dst:origin ~words:result_words
          ~fresh:false ~after:scope_done_step c
      end)

(* --- per-object method sites ----------------------------------------

   [site] fuses one static access; a {e method site} fuses a whole
   (object-class, method) pair over the flat object store: the body, the
   mechanism, the interned network kind, and every cost are resolved
   once at construction, while the home is one Bigarray load from the
   store's home table per call — so objects keep a mutable home
   ([Objspace.move]) and the very next call lands at the new one.  A
   steady-state invocation writes the frame's method-site registers
   (m0=object id, m1/m2=int operands, m3=resolved home, m4=scope
   origin), pays the forwarding check, and walks static steps: the whole
   call/migrate/return cycle allocates nothing.

   The body contract: [frame_body] runs at the object's home with the
   CPU held, reads its operands through [msite_obj]/[msite_arg_a]/
   [msite_arg_b] (state via the object store), may suspend only through
   [Thread.Frame.hold_then]-style steps, and must end with exactly one
   [msite_finish].  It owns the m-lane for the duration and must not
   start another method-site call.  [cps_body] is the same method as a
   generic monad: the RPC arm ships it to the home as the server stub,
   so both bodies must charge identical costs in identical order; the
   qcheck oracle in test/ holds them to that.

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
  m_cps_body : obj:int -> a:int -> b:int -> 'r Thread.t;
}

let msite rt ~access ~space ~args_words ~result_words ~frame_body ~cps_body =
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
    m_cps_body = cps_body;
  }

let msite_obj c = Thread.Frame.getm0 c

let msite_arg_a c = Thread.Frame.getm1 c

let msite_arg_b c = Thread.Frame.getm2 c

(* The migration has landed (same event as [Transport.mig_done_step]):
   account the delivery, then run the fused body where the object is. *)
let msite_arrived_step c =
  let ms : Obj.t msite = Thread.Frame.getms c in
  Transport.account_delivered ms.m_rt.migrate_k ~pid:(Thread.Frame.getm3 c);
  ms.m_frame_body c

let msite_send_step c =
  let ms : Obj.t msite = Thread.Frame.getms c in
  let rt = ms.m_rt in
  Transport.launch rt.tp rt.migrate_k
    ~dst:(Machine.proc rt.machine (Thread.Frame.getm3 c))
    ~words:ms.m_args_words ~recv_work:ms.m_recv ~after:msite_arrived_step c

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
  else begin
    let rt = ms.m_rt in
    Stats.Counter.incr rt.rpc_calls_c;
    Transport.call rt.tp ~req:rt.rpc_k ~reply:rt.rpc_reply_k ~dst:home
      ~args_words:ms.m_args_words ~result_words:ms.m_result_words
      (* lint: allow hot-alloc an Rpc access ships the body to the home as a CPS monad by design — one closure per *remote* call *)
      (ms.m_cps_body ~obj:(Thread.Frame.getm0 c) ~a:(Thread.Frame.getm1 c)
         ~b:(Thread.Frame.getm2 c))
      c (Thread.Frame.take_k c)
  end

(* The home resolves at entry — before the forwarding-check hold, like
   the generic path resolves it before [call]'s — so a concurrent
   [Objspace.move] firing during the hold is seen by the same calls
   under either path. *)
let msite_enter ms ~scoped ~obj ~a ~b c k =
  Thread.Frame.save_k c k;
  Thread.Frame.setms c ms;
  Thread.Frame.setm0 c obj;
  Thread.Frame.setm1 c a;
  Thread.Frame.setm2 c b;
  Thread.Frame.setm3 c (Objspace.home ms.m_space (Objspace.id_of_int obj));
  Thread.Frame.setm4 c (if scoped then Processor.id (Thread.Frame.proc c) else -1);
  Thread.Frame.hold_then c ms.m_fc msite_call_step

let msite_finish c r =
  let origin = Thread.Frame.getm4 c in
  if origin < 0 || Processor.id (Thread.Frame.proc c) = origin then Thread.Frame.call_k c r
  else begin
    let ms : Obj.t msite = Thread.Frame.getms c in
    let rt = ms.m_rt in
    Stats.Counter.incr rt.scope_returns_c;
    Thread.Frame.setv3 c r;
    Transport.migrate_f rt.tp rt.migrate_return_k
      ~dst:(Machine.proc rt.machine origin)
      ~words:ms.m_result_words ~fresh:false ~after:scope_done_step c
  end

let msite_call ms ~obj ~a ~b c k = msite_enter ms ~scoped:false ~obj ~a ~b c k

let msite_scoped ms ~obj ~a ~b c k = msite_enter ms ~scoped:true ~obj ~a ~b c k

(* Partial-activation support (paper S6): an activation that migrated
   carrying only part of its live state pulls the rest from its origin
   with one round trip.  Serving the fetch costs the origin's CPU a
   handler dispatch plus the copy. *)
let fetch_residual t ~origin ~words =
  let c = costs t in
  Stats.Counter.incr t.residual_fetches_c;
  let* p = Thread.proc in
  if Processor.id p = origin then Thread.return ()
  else
    Thread.ignore_m
      (rpc_call t ~dst:origin ~args_words:2 ~result_words:words
         (Thread.compute (Costs.copy_packet c ~words)))

let residual_fetches t = Stats.get (stats t) "rt.residual_fetches"

(* Whole-thread migration (paper S2.3): ship the thread's entire stack,
   permanently relocating it.  No scope bookkeeping applies — there is
   no caller frame left behind. *)
let migrate_thread t ~dst ~stack_words =
  Stats.Counter.incr t.thread_migrations_c;
  let* p = Thread.proc in
  if Processor.id p = dst then Thread.return ()
  else
    Transport.migrate t.tp t.thread_migrate_k
      ~dst:(Machine.proc t.machine dst)
      ~words:stack_words ~fresh:true

let thread_migrations t = Stats.get (stats t) "rt.thread_migrations"

let migrations t = Stats.get (stats t) "rt.migrations"

let rpc_calls t = Stats.get (stats t) "rt.rpc_calls"

let local_calls t = Stats.get (stats t) "rt.local_calls"
