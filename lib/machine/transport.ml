open Cm_engine

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
  (* Pooled delivery handler (arg unused): bumps the delivered counter
     without a per-message closure, the arrival path of payload-free
     injections. *)
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
  xstats : Stats.t;
  mutable kind_names : string list;  (* distinct labels, declaration order (reversed) *)
  mutable faults_on : bool;
  mutable fault_specs : (string * fault) list;
  mutable fault_gen : int;
  mutable frng : Rng.t;
  (* Timer tokens of fault-delayed frames still waiting out their extra
     delay, by frame slot.  Only faulty sends touch it; a timer removes
     its own entry when it fires, so only pending delays are held. *)
  delay_tokens : (int, Sim.token) Hashtbl.t;
  (* Pooled arrival frames: every payload message, faulty or not, is an
     int slot that ends in [af_arrive].  The low bit of [af_code]
     selects the action: [code_apply] applies [af_fn] to [af_arg] (reply
     resumptions carry the value, not a wrapper), [code_payload]
     dispatches [af_arg] as an endpoint payload.  A fault-delayed frame
     sets bit 1 and keeps its extra cycles in the bits above until
     [delay_step] arms its timer. *)
  mutable af_kind : Obj.t array;
  mutable af_fn : Obj.t array;
  mutable af_arg : Obj.t array;
  mutable af_code : int array;
  mutable af_dst : int array;
  mutable af_words : int array;
  mutable af_free : int array;
  mutable af_free_top : int;
  mutable arrive_hid : Sim.hid;
  mutable delay_hid : Sim.hid;  (* both legs of a delayed frame *)
}

let code_apply = 0

let code_payload = 1

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
  (* Registered once per declaration: every payload-free arrival of this
     kind reuses it, so the steady-state inject path never allocates. *)
  let arrive_hid = Sim.handler t.sim (fun _ -> Stats.Counter.incr ctrs.delivered_c) in
  {
    ctrs;
    net_k = Network.kind t.net name;
    recv;
    handlers = Array.make t.n_procs None;
    arrive_hid;
    f_gen = -1;
    f_spec = None;
  }

(* The arrival-side accounting of [migrate_f]'s chain, for the runtime's
   fused call sites, which run their own arrival step. *)
let account_delivered k = Stats.Counter.incr k.ctrs.delivered_c

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
end

(* ------------------------------------------------------------------ *)
(* Fault injection                                                    *)
(* ------------------------------------------------------------------ *)

let validate_fault (name, f) =
  let probability field p =
    (* Written so that nan fails too. *)
    if not (p >= 0.0 && p <= 1.0) then
      invalid_arg
        (Printf.sprintf
           "Transport.configure_faults: kind %S: %s = %g, expected a probability in [0, 1]" name
           field p)
  in
  probability "drop" f.drop;
  probability "duplicate" f.duplicate;
  probability "delay" f.delay;
  if f.delay_cycles < 0 then
    invalid_arg
      (Printf.sprintf
         "Transport.configure_faults: kind %S: delay_cycles = %d, expected an integer >= 0" name
         f.delay_cycles)

let rec validate_unique = function
  | [] -> ()
  | (name, _) :: rest ->
    if List.mem_assoc name rest then
      invalid_arg
        (Printf.sprintf "Transport.configure_faults: kind %S is listed more than once" name);
    validate_unique rest

(* A duplicated or late delivery may fire a resumption a second time;
   the thread layer's suspension generations discard it (or report it
   under [Check]), so arming faults changes nothing but the send path. *)
let configure_faults t ~seed specs =
  List.iter validate_fault specs;
  validate_unique specs;
  t.fault_specs <- specs;
  t.faults_on <- specs <> [];
  t.fault_gen <- t.fault_gen + 1;
  t.frng <- Rng.create ~seed

let clear_faults t =
  t.fault_specs <- [];
  t.faults_on <- false;
  t.fault_gen <- t.fault_gen + 1

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
(* Pooled arrival frames                                              *)
(* ------------------------------------------------------------------ *)

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

(* Post one message whose arrival action is described by a pooled frame
   slot, to [hid]: counter bumps and the action dispatch happen in a
   transport-wide handler, so the send path allocates nothing. *)
let[@inline] post_frame t (k : _ kind) ~src ~dst ~words ~code ~fn ~arg hid =
  if t.af_free_top = 0 then af_grow t;
  t.af_free_top <- t.af_free_top - 1;
  let slot = t.af_free.(t.af_free_top) in
  t.af_kind.(slot) <- Obj.repr k;
  t.af_fn.(slot) <- fn;
  t.af_arg.(slot) <- arg;
  t.af_code.(slot) <- code;
  t.af_dst.(slot) <- dst;
  t.af_words.(slot) <- words;
  let (_ : int) = Network.post_k t.net ~src ~dst ~words ~kind:k.net_k ~hid ~arg:slot in
  ()

(* The send under armed faults: draw drop, then delay, then duplicate
   from [frng], and post zero, one or two frames.  A delayed frame
   carries its extra cycles in its code word and lands on [delay_hid]; a
   duplicate is a second frame with the same code word, so it shares
   the delay. *)
let[@inline never] send_faulty t (k : _ kind) ~src ~dst ~words ~code ~fn ~arg =
  match fault_spec t k with
  | None -> post_frame t k ~src ~dst ~words ~code ~fn ~arg t.arrive_hid
  | Some f ->
    if fault_hits t f.drop then Stats.Counter.incr k.ctrs.dropped_c
    else begin
      let delayed = fault_hits t f.delay in
      if delayed then Stats.Counter.incr k.ctrs.delayed_c;
      let code = if delayed then code lor 2 lor (f.delay_cycles lsl 2) else code in
      let hid = if delayed then t.delay_hid else t.arrive_hid in
      post_frame t k ~src ~dst ~words ~code ~fn ~arg hid;
      if fault_hits t f.duplicate then begin
        Stats.Counter.incr k.ctrs.duplicated_c;
        post_frame t k ~src ~dst ~words ~code ~fn ~arg hid
      end
    end

let send_pooled t (k : _ kind) ~src ~dst ~words ~code ~fn ~arg =
  Stats.Counter.incr k.ctrs.posted_c;
  if t.faults_on then send_faulty t k ~src ~dst ~words ~code ~fn ~arg
  else post_frame t k ~src ~dst ~words ~code ~fn ~arg t.arrive_hid

(* Receive-pipeline charge in front of an endpoint handler: the handler
   and payload park in the fresh thread's frame slots. *)
let recv_step c =
  let handler : Obj.t -> unit Thread.t = Thread.Frame.getv0 c in
  let payload : Obj.t = Thread.Frame.getv1 c in
  let k : unit -> unit = Obj.magic (Thread.Frame.take_k c) in
  handler payload c k

let recv_piped cost (handler : Obj.t -> unit Thread.t) (payload : Obj.t) : unit Thread.t =
 fun c kont ->
  Thread.Frame.save_k c kont;
  Thread.Frame.setv0 c handler;
  Thread.Frame.setv1 c payload;
  Thread.Frame.hold_then c cost recv_step

(* Arrival action of a [code_payload] frame: look up the endpoint and
   start the handler thread, charging reception per the kind's [recv]
   mode. *)
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

let[@inline] af_release t slot =
  t.af_kind.(slot) <- obj_unit;
  t.af_fn.(slot) <- obj_unit;
  t.af_arg.(slot) <- obj_unit;
  t.af_free.(t.af_free_top) <- slot;
  t.af_free_top <- t.af_free_top + 1

let af_arrive t slot =
  let k : Obj.t kind = Obj.obj t.af_kind.(slot) in
  let fn = t.af_fn.(slot) in
  let arg = t.af_arg.(slot) in
  let code = t.af_code.(slot) in
  let dst = t.af_dst.(slot) in
  let words = t.af_words.(slot) in
  af_release t slot;
  Stats.Counter.incr k.ctrs.delivered_c;
  if code = code_apply then (Obj.obj fn : Obj.t -> unit) arg
  else deliver_payload t k ~dst ~words arg

(* Both legs of a fault-delayed frame.  When its wire hop lands, bit 1
   is set: strip it and the extra cycles from the code word and hold the
   slot on a cancellable timer back to this handler, so timeout and
   retry logic (and tests) can revoke a delivery still stuck in the
   delay stage.  When the timer fires, the slot arrives like any other.
   One handler serves both legs: a third transport handler would double
   the simulator's handler table on the RPC workload (DESIGN §11). *)
let delay_step t slot =
  let code = t.af_code.(slot) in
  if code land 2 <> 0 then begin
    t.af_code.(slot) <- code land 1;
    Hashtbl.replace t.delay_tokens slot (Sim.timer t.sim ~delay:(code lsr 2) t.delay_hid slot)
  end
  else begin
    Hashtbl.remove t.delay_tokens slot;
    af_arrive t slot
  end

let create ~sim ~costs ~net ~procs ~spawn =
  let t =
    {
      sim;
      costs;
      net;
      n_procs = Array.length procs;
      spawn;
      xstats = Stats.create ();
      kind_names = [];
      faults_on = false;
      fault_specs = [];
      fault_gen = 0;
      frng = Rng.create ~seed:0;
      delay_tokens = Hashtbl.create 8;
      af_kind = Array.make 16 obj_unit;
      af_fn = Array.make 16 obj_unit;
      af_arg = Array.make 16 obj_unit;
      af_code = Array.make 16 0;
      af_dst = Array.make 16 0;
      af_words = Array.make 16 0;
      af_free = Array.init 16 (fun i -> i);
      af_free_top = 16;
      arrive_hid = Sim.nil_handler;
      delay_hid = Sim.nil_handler;
    }
  in
  t.arrive_hid <- Sim.handler sim (fun slot -> af_arrive t slot);
  t.delay_hid <- Sim.handler sim (fun slot -> delay_step t slot);
  t

(* --- raw sends ------------------------------------------------------ *)

let dispatch t (k : 'a kind) ~src ~dst ~words payload =
  send_pooled t k ~src ~dst ~words ~code:code_payload ~fn:obj_unit ~arg:(Obj.repr payload)

let signal_app t k ~src ~dst ~words (fn : 'a -> unit) (v : 'a) =
  send_pooled t k ~src ~dst ~words ~code:code_apply ~fn:(Obj.repr fn) ~arg:(Obj.repr v)

(* Out of line: building the message allocates. *)
let[@inline never] refuse_faults k =
  invalid_arg
    (Printf.sprintf
       "Transport.inject: kind %S has a fault spec, but its messages are timed at issue, so \
        dropping, duplicating or delaying them has no defined outcome"
       k.ctrs.c_name)

(* Payload-free injection is the per-message hot path of the coherence
   controllers (several messages per miss): it posts the kind's pooled
   arrival handler straight through the network — no arrival closure,
   no event allocation.  The controllers time each transaction from the
   latencies returned here at issue, so a fault could only make a
   transaction cheaper or change nothing: injected kinds refuse it. *)
let inject t k ~src ~dst ~words =
  if t.faults_on && Option.is_some (fault_spec t k) then refuse_faults k;
  Stats.Counter.incr k.ctrs.posted_c;
  Network.post_k t.net ~src ~dst ~words ~kind:k.net_k ~hid:k.arrive_hid ~arg:0

let pending_delays t = Hashtbl.length t.delay_tokens

(* Walks the frame slots in order; each revoked delivery frees its slot
   and counts as dropped, so [inflight]/[check_all_delivered] stay
   closed. *)
let cancel_pending_delays t =
  let cancelled = ref 0 in
  for slot = 0 to Array.length t.af_code - 1 do
    match Hashtbl.find_opt t.delay_tokens slot with
    | Some tok when Sim.cancel t.sim tok ->
      let k : Obj.t kind = Obj.obj t.af_kind.(slot) in
      Stats.Counter.incr k.ctrs.dropped_c;
      af_release t slot;
      incr cancelled
    | _ -> ()
  done;
  Hashtbl.reset t.delay_tokens;
  !cancelled

(* ------------------------------------------------------------------ *)
(* Monadic senders                                                    *)
(* ------------------------------------------------------------------ *)

(* Each sender is a chain of statically-allocated steps over the
   thread's frame slots (see Thread.Frame): the send-pipeline hold, then
   the raw send from wherever the thread then is. *)

let post_step c =
  let t : t = Thread.Frame.getv0 c in
  let k : Obj.t kind = Thread.Frame.getv1 c in
  let payload : Obj.t = Thread.Frame.getv2 c in
  let dst = Thread.Frame.geti1 c in
  let words = Thread.Frame.geti2 c in
  dispatch t k ~src:(Processor.id (Thread.Frame.proc c)) ~dst ~words payload;
  Thread.Frame.call_k c ()

let post t k ~dst ~words payload c kont =
  Thread.Frame.save_k c kont;
  Thread.Frame.setv0 c t;
  Thread.Frame.setv1 c k;
  Thread.Frame.setv2 c payload;
  Thread.Frame.seti1 c dst;
  Thread.Frame.seti2 c words;
  Thread.Frame.hold_then c (Costs.send_pipeline t.costs ~words) post_step

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
  Thread.Frame.save_k c kont;
  Thread.Frame.setv0 c t;
  Thread.Frame.setv1 c k;
  Thread.Frame.setv2 c fn;
  Thread.Frame.setv3 c v;
  Thread.Frame.seti1 c dst;
  Thread.Frame.seti2 c words;
  Thread.Frame.hold_then c (Costs.send_pipeline t.costs ~words) notify_app_step

(* --- call: full RPC ------------------------------------------------- *)

(* Server side of a reply: after the body finished, charge the sender
   pipeline at wherever it ended up, then signal the caller's resumption
   applied to the result — no reply wrapper closure. *)
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
   finishes.  A duplicated request runs the body twice and replies
   twice; the caller's one-shot [resume] discards the second reply. *)
let server_stub t (reply : Obj.t kind) caller_id result_words (resume : Obj.t -> unit)
    (body : Obj.t Thread.t) : unit Thread.t =
 fun sc sk ->
  body sc (fun r ->
      Thread.Frame.save_k sc sk;
      Thread.Frame.setv0 sc resume;
      Thread.Frame.setv1 sc r;
      Thread.Frame.setv2 sc t;
      Thread.Frame.setv3 sc reply;
      Thread.Frame.seti1 sc caller_id;
      Thread.Frame.seti2 sc result_words;
      Thread.Frame.hold_then sc (Costs.send_pipeline t.costs ~words:result_words)
        server_reply_step)

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
  Thread.Frame.save_k c kont;
  Thread.Frame.setv0 c body;
  Thread.Frame.setv1 c t;
  Thread.Frame.setv2 c req;
  Thread.Frame.setv3 c reply;
  Thread.Frame.seti1 c dst;
  Thread.Frame.seti2 c args_words;
  Thread.Frame.seti3 c result_words;
  Thread.Frame.hold_then c (Costs.send_pipeline t.costs ~words:args_words) call_send_step

(* --- migrate: ship the current continuation ------------------------- *)

(* The send half of every migration, the fused call sites' included:
   account the post, apply the fault spec's drop decision (drawn from
   [frng] in send order, like every other fault decision; duplicate and
   delay do not apply to migrations), and travel.  A dropped migration
   loses the continuation with the message: the thread ends where it
   is, and its context is never recycled. *)
let launch t k ~dst ~words ~recv_work ~after c =
  Stats.Counter.incr k.ctrs.posted_c;
  if t.faults_on && match fault_spec t k with Some f -> fault_hits t f.drop | None -> false
  then begin
    Stats.Counter.incr k.ctrs.dropped_c;
    Thread.Frame.release c
  end
  else Thread.Frame.travel ~net:t.net ~dst ~words ~kind:k.net_k ~recv_work ~after c

let mig_done_step c =
  let k : Obj.t kind = Thread.Frame.getv0 c in
  Stats.Counter.incr k.ctrs.delivered_c;
  Thread.Frame.run_after2 c

let mig_send_step c =
  let k : Obj.t kind = Thread.Frame.getv0 c in
  let t : t = Thread.Frame.getv1 c in
  let dst : Processor.t = Thread.Frame.getv2 c in
  let words = Thread.Frame.geti1 c in
  let fresh = Thread.Frame.geti2 c = 1 in
  launch t k ~dst ~words
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
  Thread.Frame.save_k c kont;
  migrate_f t k ~dst ~words ~fresh ~after:mig_kont_step c

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
