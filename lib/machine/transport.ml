open Cm_engine
open Thread.Infix

type recv = Recv_pipeline | Recv_bare

type fault = { drop : float; duplicate : float; delay : float; delay_cycles : int }

let no_fault = { drop = 0.0; duplicate = 0.0; delay = 0.0; delay_cycles = 0 }

(* Delivery counters of one kind label, shared by every declaration of
   that label.  They live in the transport's own registry: the machine's
   registry feeds the run digests [repro selfcheck] compares, so adding
   names there would break bit-identity with the hand-rolled senders
   this module replaced. *)
type ctrs = {
  c_name : string;
  posted_c : Stats.counter;
  delivered_c : Stats.counter;
  dropped_c : Stats.counter;
  duplicated_c : Stats.counter;
  delayed_c : Stats.counter;
}

type 'a kind = {
  ctrs : ctrs;
  net_k : Network.kind;
  recv : recv;
  handlers : ('a -> unit Thread.t) option array;  (* one endpoint slot per processor *)
  ep_delivered : int array;
  (* Pooled delivery handler (arg = destination processor): bumps the
     delivery counters without a per-message closure, the arrival path
     of payload-free injections. *)
  arrive_hid : Sim.hid;
  (* Cached fault spec, invalidated by generation when the fault
     configuration changes. *)
  mutable f_gen : int;
  mutable f_spec : fault option;
}

let obj_unit : Obj.t = Obj.repr 0

type t = {
  sim : Sim.t;
  costs : Costs.t;
  net : Network.t;
  n_procs : int;
  spawn : on:int -> unit Thread.t -> unit;
  eng : Thread.engine;  (* the owning machine's engine: faults force CPS *)
  xstats : Stats.t;
  mutable kind_names : string list;  (* distinct labels, declaration order (reversed) *)
  mutable faults_on : bool;
  mutable fault_specs : (string * fault) list;
  mutable fault_gen : int;
  mutable frng : Rng.t;
  (* Timers of fault-delayed deliveries still pending, with the owning
     kind's dropped counter (a cancelled delivery counts as dropped so
     the in-flight accounting stays closed).  A timer removes its own
     entry when it fires, so only pending delays are held. *)
  delay_timers : (Sim.token, Stats.counter) Hashtbl.t;
  (* Pooled arrival frames: with faults off, every dispatch/signal
     arrival is an int slot posted through [arrive_hid] — the per-message
     arrive closure of the original path, defunctionalized.  [af_code]
     selects the action: 0 runs [af_fn] as a thunk, 1 applies [af_fn] to
     [af_arg] (reply resumptions carry the value, not a wrapper), 2
     dispatches [af_arg] as an endpoint payload. *)
  mutable af_kind : Obj.t array;
  mutable af_fn : Obj.t array;
  mutable af_arg : Obj.t array;
  mutable af_code : int array;
  mutable af_dst : int array;
  mutable af_words : int array;
  mutable af_free : int array;
  mutable af_free_top : int;
  mutable arrive_hid : Sim.hid;
}

let intern_ctrs t name =
  if not (List.mem name t.kind_names) then t.kind_names <- name :: t.kind_names;
  let c suffix = Stats.counter t.xstats ("xport." ^ name ^ "." ^ suffix) in
  {
    c_name = name;
    posted_c = c "posted";
    delivered_c = c "delivered";
    dropped_c = c "dropped";
    duplicated_c = c "duplicated";
    delayed_c = c "delayed";
  }

let kind t ?(recv = Recv_pipeline) name =
  let ctrs = intern_ctrs t name in
  let ep_delivered = Array.make t.n_procs 0 in
  (* Registered once per declaration: every payload-free arrival of this
     kind reuses it, so the steady-state inject path never allocates. *)
  let arrive_hid =
    Sim.handler t.sim (fun dst ->
        Stats.Counter.incr ctrs.delivered_c;
        ep_delivered.(dst) <- ep_delivered.(dst) + 1)
  in
  {
    ctrs;
    net_k = Network.kind t.net name;
    recv;
    handlers = Array.make t.n_procs None;
    ep_delivered;
    arrive_hid;
    f_gen = -1;
    f_spec = None;
  }

let kind_name k = k.ctrs.c_name

(* Accounting accessors for external frame-path fast paths (the
   runtime's fused call sites): exactly the counter traffic [migrate_f]'s
   steps perform, exposed so a caller that already holds the per-site
   constants need not round-trip them through the frame slots. *)
let net_kind k = k.net_k

let account_posted k = Stats.Counter.incr k.ctrs.posted_c

let account_delivered k ~pid =
  Stats.Counter.incr k.ctrs.delivered_c;
  k.ep_delivered.(pid) <- k.ep_delivered.(pid) + 1

module Endpoint = struct
  let register t ~proc ~kind handler =
    if proc < 0 || proc >= t.n_procs then
      invalid_arg
        (Printf.sprintf "Transport.Endpoint.register (%s): processor %d out of range [0,%d)"
           kind.ctrs.c_name proc t.n_procs);
    kind.handlers.(proc) <- Some handler

  let register_all t ~kind handler =
    for proc = 0 to t.n_procs - 1 do
      kind.handlers.(proc) <- Some handler
    done

  let delivered ~kind ~proc = kind.ep_delivered.(proc)
end

(* ------------------------------------------------------------------ *)
(* Fault injection                                                    *)
(* ------------------------------------------------------------------ *)

(* Arming faults forces every thread of the machine onto the CPS
   reference paths: a duplicated delivery may invoke a resumption twice,
   and the original per-suspension closures reproduce that behavior
   exactly, where a shared frame slot would misdirect the second call. *)
let configure_faults t ~seed specs =
  t.fault_specs <- specs;
  t.faults_on <- specs <> [];
  t.fault_gen <- t.fault_gen + 1;
  t.frng <- Rng.create ~seed;
  if t.faults_on then Thread.disable_frames t.eng else Thread.restore_frames t.eng

let clear_faults t =
  t.fault_specs <- [];
  t.faults_on <- false;
  t.fault_gen <- t.fault_gen + 1;
  Thread.restore_frames t.eng

let faults_active t = t.faults_on

let fault_spec t (k : _ kind) =
  if k.f_gen <> t.fault_gen then begin
    k.f_spec <- List.assoc_opt k.ctrs.c_name t.fault_specs;
    k.f_gen <- t.fault_gen
  end;
  k.f_spec

(* Draw only for non-zero probabilities: configuring one aspect of one
   kind does not perturb the decision stream of the others. *)
let fault_hits t p = p > 0.0 && Rng.float t.frng 1.0 < p

(* ------------------------------------------------------------------ *)
(* Transmission                                                       *)
(* ------------------------------------------------------------------ *)

(* The extra delay leg of a fault-delayed delivery is a cancellable
   timer, so timeout and retry logic (and tests) can revoke a delivery
   that is still stuck in the delay stage. *)
let delay_leg t ~extra ~dropped_c arrive =
  let tok = ref None in
  let fire () =
    Option.iter (Hashtbl.remove t.delay_timers) !tok;
    arrive ()
  in
  let token = Sim.timer t.sim ~delay:extra fire in
  tok := Some token;
  Hashtbl.replace t.delay_timers token dropped_c

(* Send one [k] message; [deliver] runs at arrival, after the delivery
   counters are bumped.  Returns the wire latency ([0] for a dropped
   message).  This is the fault/general path — the fault-free senders
   below post a pooled arrival frame instead and never build [arrive]. *)
let transmit t (k : _ kind) ~src ~dst ~words deliver =
  Stats.Counter.incr k.ctrs.posted_c;
  let arrive () =
    Stats.Counter.incr k.ctrs.delivered_c;
    k.ep_delivered.(dst) <- k.ep_delivered.(dst) + 1;
    deliver ()
  in
  if not t.faults_on then Network.send_k t.net ~src ~dst ~words ~kind:k.net_k arrive
  else
    match fault_spec t k with
    | None -> Network.send_k t.net ~src ~dst ~words ~kind:k.net_k arrive
    | Some f ->
      if fault_hits t f.drop then begin
        Stats.Counter.incr k.ctrs.dropped_c;
        0
      end
      else begin
        let arrive =
          if fault_hits t f.delay then begin
            Stats.Counter.incr k.ctrs.delayed_c;
            let extra = f.delay_cycles in
            let dropped_c = k.ctrs.dropped_c in
            fun () -> delay_leg t ~extra ~dropped_c arrive
          end
          else arrive
        in
        let latency = Network.send_k t.net ~src ~dst ~words ~kind:k.net_k arrive in
        if fault_hits t f.duplicate then begin
          Stats.Counter.incr k.ctrs.duplicated_c;
          let (_ : int) = Network.send_k t.net ~src ~dst ~words ~kind:k.net_k arrive in
          ()
        end;
        latency
      end

(* --- pooled arrival frames ----------------------------------------- *)

let af_grow t =
  let cap = Array.length t.af_code in
  let ncap = 2 * cap in
  let copy_obj (a : Obj.t array) =
    let n = Array.make ncap obj_unit in
    Array.blit a 0 n 0 cap;
    n
  in
  let copy_int (a : int array) =
    let n = Array.make ncap 0 in
    Array.blit a 0 n 0 cap;
    n
  in
  t.af_kind <- copy_obj t.af_kind;
  t.af_fn <- copy_obj t.af_fn;
  t.af_arg <- copy_obj t.af_arg;
  t.af_code <- copy_int t.af_code;
  t.af_dst <- copy_int t.af_dst;
  t.af_words <- copy_int t.af_words;
  t.af_free <- copy_int t.af_free;
  for i = 0 to cap - 1 do
    t.af_free.(t.af_free_top + i) <- cap + i
  done;
  t.af_free_top <- t.af_free_top + cap

(* Post one fault-free message whose arrival action is described by a
   pooled frame slot: counter bumps and the action dispatch happen in
   the transport-wide [arrive_hid] handler, so the send path allocates
   nothing.  Latency accounting and event ordering are identical to
   [transmit]'s closure path ([Network.post_k] = [send_k]). *)
let send_pooled t (k : _ kind) ~src ~dst ~words ~code ~fn ~arg =
  Stats.Counter.incr k.ctrs.posted_c;
  if t.af_free_top = 0 then af_grow t;
  t.af_free_top <- t.af_free_top - 1;
  let slot = t.af_free.(t.af_free_top) in
  t.af_kind.(slot) <- Obj.repr k;
  t.af_fn.(slot) <- fn;
  t.af_arg.(slot) <- arg;
  t.af_code.(slot) <- code;
  t.af_dst.(slot) <- dst;
  t.af_words.(slot) <- words;
  let (_ : int) =
    Network.post_k t.net ~src ~dst ~words ~kind:k.net_k ~hid:t.arrive_hid ~arg:slot
  in
  ()

(* Receive-pipeline charge in front of an endpoint handler.  The frame
   path parks the handler and payload in the fresh thread's slots; the
   CPS path is the bind chain of the original dispatch. *)
let recv_step c =
  let handler : Obj.t -> unit Thread.t = Thread.Frame.getv0 c in
  let payload : Obj.t = Thread.Frame.getv1 c in
  let k : unit -> unit = Obj.magic (Thread.Frame.take_k c) in
  handler payload c k

let recv_piped cost (handler : Obj.t -> unit Thread.t) (payload : Obj.t) : unit Thread.t =
 fun c kont ->
  if Thread.Frame.on c then begin
    Thread.Frame.save_k c kont;
    Thread.Frame.setv0 c handler;
    Thread.Frame.setv1 c payload;
    Thread.Frame.hold_then c cost recv_step
  end
  else Thread.compute cost c (fun () -> handler payload c kont)

(* Arrival action of a code-2 frame: look up the endpoint and start the
   handler thread, charging reception per the kind's [recv] mode. *)
let deliver_payload t (k : Obj.t kind) ~dst ~words (payload : Obj.t) =
  match k.handlers.(dst) with
  | None ->
    invalid_arg
      (Printf.sprintf "Transport: no %S endpoint registered at processor %d" k.ctrs.c_name dst)
  | Some handler -> (
    match k.recv with
    | Recv_bare -> t.spawn ~on:dst (handler payload)
    | Recv_pipeline ->
      t.spawn ~on:dst
        (recv_piped (Costs.recv_pipeline t.costs ~words ~new_thread:true) handler payload))

let af_arrive t slot =
  let k : Obj.t kind = Obj.obj t.af_kind.(slot) in
  let fn = t.af_fn.(slot) in
  let arg = t.af_arg.(slot) in
  let code = t.af_code.(slot) in
  let dst = t.af_dst.(slot) in
  let words = t.af_words.(slot) in
  t.af_kind.(slot) <- obj_unit;
  t.af_fn.(slot) <- obj_unit;
  t.af_arg.(slot) <- obj_unit;
  t.af_free.(t.af_free_top) <- slot;
  t.af_free_top <- t.af_free_top + 1;
  Stats.Counter.incr k.ctrs.delivered_c;
  k.ep_delivered.(dst) <- k.ep_delivered.(dst) + 1;
  if code = 0 then (Obj.obj fn : unit -> unit) ()
  else if code = 1 then (Obj.obj fn : Obj.t -> unit) arg
  else deliver_payload t k ~dst ~words arg

let create ~sim ~costs ~net ~procs ~spawn ~eng =
  let self = ref None in
  let t =
    {
      sim;
      costs;
      net;
      n_procs = Array.length procs;
      spawn;
      eng;
      xstats = Stats.create ();
      kind_names = [];
      faults_on = false;
      fault_specs = [];
      fault_gen = 0;
      frng = Rng.create ~seed:0;
      delay_timers = Hashtbl.create 8;
      af_kind = Array.make 16 obj_unit;
      af_fn = Array.make 16 obj_unit;
      af_arg = Array.make 16 obj_unit;
      af_code = Array.make 16 0;
      af_dst = Array.make 16 0;
      af_words = Array.make 16 0;
      af_free = Array.init 16 (fun i -> i);
      af_free_top = 16;
      arrive_hid = Sim.handler sim (fun _ -> assert false);
    }
  in
  let hid =
    Sim.handler sim (fun slot ->
        match !self with Some t -> af_arrive t slot | None -> assert false)
  in
  t.arrive_hid <- hid;
  self := Some t;
  t

(* --- raw sends ------------------------------------------------------ *)

let dispatch_slow t (k : 'a kind) ~src ~dst ~words payload =
  let deliver () =
    match k.handlers.(dst) with
    | None ->
      invalid_arg
        (Printf.sprintf "Transport: no %S endpoint registered at processor %d" k.ctrs.c_name
           dst)
    | Some handler ->
      t.spawn ~on:dst
        (match k.recv with
        | Recv_pipeline ->
          let* () =
            Thread.compute (Costs.recv_pipeline t.costs ~words ~new_thread:true)
          in
          handler payload
        | Recv_bare -> handler payload)
  in
  let (_ : int) = transmit t k ~src ~dst ~words deliver in
  ()

let dispatch t (k : 'a kind) ~src ~dst ~words payload =
  if t.faults_on then dispatch_slow t k ~src ~dst ~words payload
  else send_pooled t k ~src ~dst ~words ~code:2 ~fn:obj_unit ~arg:(Obj.repr payload)

let signal_slow t k ~src ~dst ~words deliver =
  let (_ : int) = transmit t k ~src ~dst ~words deliver in
  ()

let signal t k ~src ~dst ~words deliver =
  if t.faults_on then signal_slow t k ~src ~dst ~words deliver
  else send_pooled t k ~src ~dst ~words ~code:0 ~fn:(Obj.repr deliver) ~arg:obj_unit

let signal_app t k ~src ~dst ~words (fn : 'a -> unit) (v : 'a) =
  if t.faults_on then signal_slow t k ~src ~dst ~words (fun () -> fn v)
  else send_pooled t k ~src ~dst ~words ~code:1 ~fn:(Obj.repr fn) ~arg:(Obj.repr v)

(* Payload-free injection is the per-message hot path of the coherence
   controllers (several messages per miss): with faults off it posts the
   kind's pooled arrival handler straight through the network — no
   arrival closure, no event allocation. *)
let inject t k ~src ~dst ~words =
  if not t.faults_on then begin
    Stats.Counter.incr k.ctrs.posted_c;
    Network.post_k t.net ~src ~dst ~words ~kind:k.net_k ~hid:k.arrive_hid ~arg:dst
  end
  else transmit t k ~src ~dst ~words ignore

let pending_delays t = Hashtbl.length t.delay_timers

(* Order-free: each entry cancels its own timer and bumps a counter. *)
let cancel_pending_delays t =
  let cancelled =
    Hashtbl.fold (* lint: allow hashtbl-order *)
      (fun tok dropped_c acc ->
        if Sim.cancel t.sim tok then begin
          (* The delivery will never happen: account it as dropped so
             [inflight]/[check_all_delivered] stay closed. *)
          Stats.Counter.incr dropped_c;
          acc + 1
        end
        else acc)
      t.delay_timers 0
  in
  Hashtbl.reset t.delay_timers;
  cancelled

(* ------------------------------------------------------------------ *)
(* Monadic senders                                                    *)
(* ------------------------------------------------------------------ *)

(* Each sender has a frame fast path (statically-allocated steps over
   the thread's frame slots — see Thread.Frame) and the original CPS
   monad, kept verbatim in the [_cps] sibling as the reference engine.
   Both schedule identical events; the oracle in test/ compares their
   digests. *)

let post_cps t k ~dst ~words payload =
  let* p = Thread.proc in
  let* () = Thread.compute (Costs.send_pipeline t.costs ~words) in
  fun _ctx kont ->
    dispatch t k ~src:(Processor.id p) ~dst ~words payload;
    kont ()

let post_step c =
  let t : t = Thread.Frame.getv0 c in
  let k : Obj.t kind = Thread.Frame.getv1 c in
  let payload : Obj.t = Thread.Frame.getv2 c in
  let dst = Thread.Frame.geti1 c in
  let words = Thread.Frame.geti2 c in
  dispatch t k ~src:(Processor.id (Thread.Frame.proc c)) ~dst ~words payload;
  Thread.Frame.call_k c ()

let post t k ~dst ~words payload c kont =
  if Thread.Frame.on c then begin
    Thread.Frame.save_k c kont;
    Thread.Frame.setv0 c t;
    Thread.Frame.setv1 c k;
    Thread.Frame.setv2 c payload;
    Thread.Frame.seti1 c dst;
    Thread.Frame.seti2 c words;
    Thread.Frame.hold_then c (Costs.send_pipeline t.costs ~words) post_step
  end
  else post_cps t k ~dst ~words payload c kont

let notify_cps t k ~dst ~words deliver =
  let* p = Thread.proc in
  let* () = Thread.compute (Costs.send_pipeline t.costs ~words) in
  fun _ctx kont ->
    signal t k ~src:(Processor.id p) ~dst ~words deliver;
    kont ()

let notify_step c =
  let t : t = Thread.Frame.getv0 c in
  let k : Obj.t kind = Thread.Frame.getv1 c in
  let deliver : unit -> unit = Thread.Frame.getv2 c in
  let dst = Thread.Frame.geti1 c in
  let words = Thread.Frame.geti2 c in
  signal t k ~src:(Processor.id (Thread.Frame.proc c)) ~dst ~words deliver;
  Thread.Frame.call_k c ()

let notify t k ~dst ~words deliver c kont =
  if Thread.Frame.on c then begin
    Thread.Frame.save_k c kont;
    Thread.Frame.setv0 c t;
    Thread.Frame.setv1 c k;
    Thread.Frame.setv2 c deliver;
    Thread.Frame.seti1 c dst;
    Thread.Frame.seti2 c words;
    Thread.Frame.hold_then c (Costs.send_pipeline t.costs ~words) notify_step
  end
  else notify_cps t k ~dst ~words deliver c kont

let notify_app_step c =
  let t : t = Thread.Frame.getv0 c in
  let k : Obj.t kind = Thread.Frame.getv1 c in
  let fn : Obj.t -> unit = Thread.Frame.getv2 c in
  let v : Obj.t = Thread.Frame.getv3 c in
  let dst = Thread.Frame.geti1 c in
  let words = Thread.Frame.geti2 c in
  signal_app t k ~src:(Processor.id (Thread.Frame.proc c)) ~dst ~words fn v;
  Thread.Frame.call_k c ()

let notify_app t k ~dst ~words (fn : 'a -> unit) (v : 'a) c kont =
  if Thread.Frame.on c then begin
    Thread.Frame.save_k c kont;
    Thread.Frame.setv0 c t;
    Thread.Frame.setv1 c k;
    Thread.Frame.setv2 c fn;
    Thread.Frame.setv3 c v;
    Thread.Frame.seti1 c dst;
    Thread.Frame.seti2 c words;
    Thread.Frame.hold_then c (Costs.send_pipeline t.costs ~words) notify_app_step
  end
  else notify_cps t k ~dst ~words (fun () -> fn v) c kont

(* --- call: full RPC ------------------------------------------------- *)

let call_cps t ~req ~reply ~dst ~args_words ~result_words body =
  let* caller = Thread.proc in
  let caller_id = Processor.id caller in
  (* Client stub: marshal and send the request, then block.  The server
     side runs the payload thread at [dst] (endpoints for [req] run
     their payload), computes, and replies from wherever the body ends
     up — it may itself migrate. *)
  let* () = Thread.compute (Costs.send_pipeline t.costs ~words:args_words) in
  let* r =
    Thread.await (fun ~resume ->
        dispatch t req ~src:caller_id ~dst ~words:args_words
          (let* r = body in
           notify t reply ~dst:caller_id ~words:result_words (fun () -> resume r)))
  in
  (* Reply reception on the caller: no thread creation, just unblock. *)
  let* () = Thread.compute (Costs.recv_pipeline t.costs ~words:result_words ~new_thread:false) in
  Thread.return r

(* Server side of a frame-path reply: after the body finished, charge
   the sender pipeline at wherever it ended up, then signal the caller's
   resumption applied to the result — no reply wrapper closure. *)
let server_reply_step c =
  let resume : Obj.t -> unit = Thread.Frame.getv0 c in
  let r : Obj.t = Thread.Frame.getv1 c in
  let t : t = Thread.Frame.getv2 c in
  let reply : Obj.t kind = Thread.Frame.getv3 c in
  let caller = Thread.Frame.geti1 c in
  let words = Thread.Frame.geti2 c in
  signal_app t reply ~src:(Processor.id (Thread.Frame.proc c)) ~dst:caller ~words resume r;
  Thread.Frame.call_k c ()

(* The request payload: one closure per call (it crosses the wire and
   must survive the server body clobbering the server thread's frame
   slots), plus the reply continuation it builds when the body
   finishes. *)
let server_stub t (reply : Obj.t kind) caller_id result_words (resume : Obj.t -> unit)
    (body : Obj.t Thread.t) : unit Thread.t =
 fun sc sk ->
  body sc (fun r ->
      if Thread.Frame.on sc then begin
        Thread.Frame.save_k sc sk;
        Thread.Frame.setv0 sc resume;
        Thread.Frame.setv1 sc r;
        Thread.Frame.setv2 sc t;
        Thread.Frame.setv3 sc reply;
        Thread.Frame.seti1 sc caller_id;
        Thread.Frame.seti2 sc result_words;
        Thread.Frame.hold_then sc (Costs.send_pipeline t.costs ~words:result_words)
          server_reply_step
      end
      else notify_cps t reply ~dst:caller_id ~words:result_words (fun () -> resume r) sc sk)

let call_done_step c =
  let r : Obj.t = Thread.Frame.getv0 c in
  Thread.Frame.call_k c r

let call_recv_step c =
  let t : t = Thread.Frame.getv1 c in
  let words = Thread.Frame.geti3 c in
  Thread.Frame.hold_then c
    (Costs.recv_pipeline t.costs ~words ~new_thread:false)
    call_done_step

(* Runs from the network event delivering the reply: park the result and
   requeue the caller, exactly as an [await] resumption would; reception
   is charged after dispatch. *)
let call_reply_step c (r : Obj.t) =
  Thread.Frame.setv0 c r;
  Thread.Frame.enqueue_then c call_recv_step

let call_send_step c =
  let body : Obj.t Thread.t = Thread.Frame.getv0 c in
  let t : t = Thread.Frame.getv1 c in
  let req : unit Thread.t kind = Thread.Frame.getv2 c in
  let reply : Obj.t kind = Thread.Frame.getv3 c in
  let dst = Thread.Frame.geti1 c in
  let args_words = Thread.Frame.geti2 c in
  let result_words = Thread.Frame.geti3 c in
  let caller_id = Processor.id (Thread.Frame.proc c) in
  (* [t] stays in v1 and [result_words] in i3 for the reply step; the
     other slots are dead once the stub is built. *)
  let resume = Thread.Frame.resume c call_reply_step in
  dispatch t req ~src:caller_id ~dst ~words:args_words
    (server_stub t reply caller_id result_words resume body);
  Thread.Frame.release c

let call t ~req ~reply ~dst ~args_words ~result_words body c kont =
  if Thread.Frame.on c then begin
    Thread.Frame.save_k c kont;
    Thread.Frame.setv0 c body;
    Thread.Frame.setv1 c t;
    Thread.Frame.setv2 c req;
    Thread.Frame.setv3 c reply;
    Thread.Frame.seti1 c dst;
    Thread.Frame.seti2 c args_words;
    Thread.Frame.seti3 c result_words;
    Thread.Frame.hold_then c (Costs.send_pipeline t.costs ~words:args_words) call_send_step
  end
  else call_cps t ~req ~reply ~dst ~args_words ~result_words body c kont

(* --- migrate: ship the current continuation ------------------------- *)

let migrate_cps t k ~dst ~words ~fresh =
  let* p = Thread.proc in
  let* () = Thread.compute (Costs.send_pipeline t.costs ~words) in
  let* sent =
    fun _ctx kont ->
     Stats.Counter.incr k.ctrs.posted_c;
     let drop =
       t.faults_on
       &&
       match fault_spec t k with
       | Some f -> fault_hits t f.drop
       | None -> false
     in
     if drop then Stats.Counter.incr k.ctrs.dropped_c;
     kont (not drop)
  in
  if not sent then (
    fun _ctx _kont ->
      (* The continuation was lost with the message: the thread ends here
         (the sanitizer's [dropped] counter owns the account). *)
      Processor.release p)
  else
    let* () =
      Thread.travel_k ~net:t.net ~dst ~words ~kind:k.net_k
        ~recv_work:(Costs.recv_pipeline t.costs ~words ~new_thread:fresh)
    in
    fun _ctx kont ->
      Stats.Counter.incr k.ctrs.delivered_c;
      let d = Processor.id dst in
      k.ep_delivered.(d) <- k.ep_delivered.(d) + 1;
      kont ()

let mig_done_step c =
  let k : Obj.t kind = Thread.Frame.getv0 c in
  Stats.Counter.incr k.ctrs.delivered_c;
  let d = Processor.id (Thread.Frame.proc c) in
  k.ep_delivered.(d) <- k.ep_delivered.(d) + 1;
  Thread.Frame.run_after2 c

let mig_send_step c =
  let k : Obj.t kind = Thread.Frame.getv0 c in
  let t : t = Thread.Frame.getv1 c in
  let dst : Processor.t = Thread.Frame.getv2 c in
  let words = Thread.Frame.geti1 c in
  let fresh = Thread.Frame.geti2 c = 1 in
  Stats.Counter.incr k.ctrs.posted_c;
  Thread.Frame.travel ~net:t.net ~dst ~words ~kind:k.net_k
    ~recv_work:(Costs.recv_pipeline t.costs ~words ~new_thread:fresh)
    ~after:mig_done_step c

let migrate_f t k ~dst ~words ~fresh ~after c =
  Thread.Frame.setv0 c k;
  Thread.Frame.setv1 c t;
  Thread.Frame.setv2 c dst;
  Thread.Frame.seti1 c words;
  Thread.Frame.seti2 c (if fresh then 1 else 0);
  Thread.Frame.set_after2 c after;
  Thread.Frame.hold_then c (Costs.send_pipeline t.costs ~words) mig_send_step

let mig_kont_step c = Thread.Frame.call_k c ()

let migrate t k ~dst ~words ~fresh c kont =
  if Thread.Frame.on c && not t.faults_on then begin
    Thread.Frame.save_k c kont;
    migrate_f t k ~dst ~words ~fresh ~after:mig_kont_step c
  end
  else migrate_cps t k ~dst ~words ~fresh c kont

(* ------------------------------------------------------------------ *)
(* Accounting                                                         *)
(* ------------------------------------------------------------------ *)

let stats t = t.xstats

let counter_of t name suffix = Stats.get t.xstats ("xport." ^ name ^ "." ^ suffix)

let posted t name = counter_of t name "posted"

let delivered t name = counter_of t name "delivered"

let dropped t name = counter_of t name "dropped"

let inflight t name =
  counter_of t name "posted"
  + counter_of t name "duplicated"
  - counter_of t name "delivered"
  - counter_of t name "dropped"

let inflight_total t = List.fold_left (fun acc name -> acc + inflight t name) 0 t.kind_names

let check_all_delivered t =
  List.iter
    (fun name ->
      let n = inflight t name in
      Check.require (n = 0) "Transport: %d %S message(s) posted but never delivered" n name)
    (List.rev t.kind_names)
