open Cm_engine
open Cm_machine
open Thread.Infix

type 'state t = {
  rt : Runtime.t;
  space : 'state Objspace.t;
  words_of : 'state -> int;
  n_procs : int;
  (* (processor, object) -> believed home, keyed by the flat int
     [object * n_procs + processor] — hint lookups on the forwarding
     fast path allocate no tuple key. *)
  hints : (int, int) Hashtbl.t;
  tp : Transport.t;
  call_k : unit Thread.t Transport.kind;
  forward_k : unit Thread.t Transport.kind;
  transfer_k : unit Thread.t Transport.kind;
  reply_k : unit Transport.kind;
  (* Pooled reply records: a reply carries an int slot holding the
     result and the serving home, instead of a boxed [(r, home)] pair
     inside a per-reply closure.  The caller unpacks and frees the slot
     when its resumption runs. *)
  mutable rs_r : Obj.t array;
  mutable rs_home : int array;
  mutable rs_free : int array;
  mutable rs_free_top : int;
}

let rs_alloc t =
  if t.rs_free_top = 0 then begin
    let cap = Array.length t.rs_home in
    let ncap = 2 * cap in
    let nr = Array.make ncap (Obj.repr 0) in
    Array.blit t.rs_r 0 nr 0 cap;
    let nh = Array.make ncap 0 in
    Array.blit t.rs_home 0 nh 0 cap;
    let nf = Array.make ncap 0 in
    Array.blit t.rs_free 0 nf 0 cap;
    t.rs_r <- nr;
    t.rs_home <- nh;
    t.rs_free <- nf;
    for k = 0 to cap - 1 do
      t.rs_free.(k) <- cap + k
    done;
    t.rs_free_top <- cap
  end;
  t.rs_free_top <- t.rs_free_top - 1;
  t.rs_free.(t.rs_free_top)

let rs_release t slot =
  t.rs_r.(slot) <- Obj.repr 0;
  t.rs_free.(t.rs_free_top) <- slot;
  t.rs_free_top <- t.rs_free_top + 1

let create rt space ~words_of =
  let tp = Runtime.transport rt in
  (* Requests, forwards and state transfers all carry the computation to
     run at the destination as their payload; any processor can host an
     object, so endpoints exist everywhere. *)
  let call_k = Transport.kind tp "objmig_call" in
  let forward_k = Transport.kind tp "objmig_forward" in
  let transfer_k = Transport.kind tp "objmig_transfer" in
  Transport.Endpoint.register_all tp ~kind:call_k (fun m -> m);
  Transport.Endpoint.register_all tp ~kind:forward_k (fun m -> m);
  Transport.Endpoint.register_all tp ~kind:transfer_k (fun m -> m);
  {
    rt;
    space;
    words_of;
    n_procs = Machine.n_procs (Runtime.machine rt);
    hints = Hashtbl.create 64;
    tp;
    call_k;
    forward_k;
    transfer_k;
    reply_k = Transport.kind tp "objmig_reply";
    rs_r = Array.make 8 (Obj.repr 0);
    rs_home = Array.make 8 0;
    rs_free = Array.init 8 (fun k -> k);
    rs_free_top = 8;
  }

let machine t = Runtime.machine t.rt

let costs t = (machine t).Machine.costs

let stats t = (machine t).Machine.stats

(* The caller's current belief about where the object lives.  First use
   consults the (free) name service — afterwards only forwarding keeps
   beliefs up to date, as in Emerald. *)
let hint_key t ~pid i = ((i : Objspace.id :> int) * t.n_procs) + pid

(* Exception-based lookup: the hit path — every forwarding check — boxes
   no [Some]; only first use (a miss) pays the handler. *)
let hint t ~pid i =
  match Hashtbl.find t.hints (hint_key t ~pid i) with
  | h -> h
  | exception Not_found ->
    let h = Objspace.home t.space i in
    Hashtbl.replace t.hints (hint_key t ~pid i) h;
    h

let learn t ~pid i home = Hashtbl.replace t.hints (hint_key t ~pid i) home

let forwards t = Stats.get (stats t) "objmig.forwards"

let object_moves t = Stats.get (stats t) "objmig.moves"

(* Run [m] on the object as a handler occupying the delivery processor's
   CPU, then reply to [caller]; [resume] receives a pooled reply slot
   holding the result and the object's home at execution time (to repair
   the caller's hint).  The transport charges the receive pipeline
   before this body runs. *)
let rec serve t i ~caller ~args_words ~result_words m (resume : int -> unit) : unit Thread.t =
  let* p = Thread.proc in
  let on = Processor.id p in
  let here = Objspace.home t.space i in
  if here = on then
    let* r = m (Objspace.state t.space i) in
    let slot = rs_alloc t in
    t.rs_r.(slot) <- Obj.repr r;
    t.rs_home.(slot) <- on;
    Transport.notify_app t.tp t.reply_k ~dst:caller ~words:result_words resume slot
  else begin
    (* Stale home: forward the request to where the object went. *)
    Stats.incr (stats t) "objmig.forwards";
    Transport.post t.tp t.forward_k ~dst:here ~words:args_words
      (serve t i ~caller ~args_words ~result_words m resume)
  end

(* --- [call] ----------------------------------------------------------- *)

(* The caller-side steps run over the frame's method-site lane — the
   forwarding check (always paid), then, unless the object is here and
   the hint agrees: send hold, dispatch to the believed home, release;
   on the reply, enqueue, repair the hint, receive hold, resume.  No
   binds and no [Some] box from the hint; the pooled reply slot rides in
   [m3].  The request payload ([serve ... m resume]) is a per-call
   closure: it crosses the wire and runs on a server thread at the
   object's home.  Lane use: ms = space, mv = method (then result), m0 =
   object id, m1 = args words, m2 = result words, m3 = reply slot, m4 =
   believed target. *)

let om_done_step c =
  let r : Obj.t = Thread.Frame.getmv c in
  Thread.Frame.call_k c r

let om_reply_step c =
  let t : Obj.t t = Thread.Frame.getms c in
  let slot = Thread.Frame.getm3 c in
  let r = t.rs_r.(slot) in
  let home = t.rs_home.(slot) in
  rs_release t slot;
  learn t
    ~pid:(Processor.id (Thread.Frame.proc c))
    (Objspace.id_of_int (Thread.Frame.getm0 c))
    home;
  Thread.Frame.setmv c r;
  Thread.Frame.hold_then c
    (Costs.recv_pipeline (costs t) ~words:(Thread.Frame.getm2 c) ~new_thread:false)
    om_done_step

(* The reply landed: park the slot and re-enqueue the caller — the same
   enqueue [Thread.await]'s resumption performs. *)
let om_resume_step c (v : Obj.t) =
  Thread.Frame.setm3 c (Obj.magic v : int);
  Thread.Frame.enqueue_then c om_reply_step

let om_send_step c =
  let t : Obj.t t = Thread.Frame.getms c in
  let i = Objspace.id_of_int (Thread.Frame.getm0 c) in
  let pid = Processor.id (Thread.Frame.proc c) in
  let args_words = Thread.Frame.getm1 c in
  let resume : int -> unit = Thread.Frame.resume c om_resume_step in
  Transport.dispatch t.tp t.call_k ~src:pid ~dst:(Thread.Frame.getm4 c) ~words:args_words
    (serve t i ~caller:pid ~args_words ~result_words:(Thread.Frame.getm2 c)
       (Obj.magic (Thread.Frame.getmv c) : Obj.t -> Obj.t Thread.t)
       resume);
  Thread.Frame.release c

let om_call_step c =
  let t : Obj.t t = Thread.Frame.getms c in
  let i = Objspace.id_of_int (Thread.Frame.getm0 c) in
  let pid = Processor.id (Thread.Frame.proc c) in
  let believed = hint t ~pid i in
  if believed = pid && Objspace.home t.space i = pid then
    (Obj.magic (Thread.Frame.getmv c) : Obj.t -> Obj.t Thread.t)
      (Objspace.state t.space i)
      c (Thread.Frame.take_k c)
  else begin
    let target = if believed = pid then Objspace.home t.space i else believed in
    Thread.Frame.setm4 c target;
    Thread.Frame.hold_then c
      (Costs.send_pipeline (costs t) ~words:(Thread.Frame.getm1 c))
      om_send_step
  end

let call t i ~args_words ~result_words m c k =
  Thread.Frame.save_k c k;
  Thread.Frame.setms c t;
  Thread.Frame.setmv c m;
  Thread.Frame.setm0 c (i : Objspace.id :> int);
  Thread.Frame.setm1 c args_words;
  Thread.Frame.setm2 c result_words;
  Thread.Frame.hold_then c (costs t).Costs.forwarding_check om_call_step

let migrate_object t i ~to_ =
  let c = costs t in
  let* p = Thread.proc in
  let pid = Processor.id p in
  let home = Objspace.home t.space i in
  if home = to_ then Thread.return ()
  else begin
    Stats.incr (stats t) "objmig.moves";
    let words = t.words_of (Objspace.state t.space i) in
    (* The home packs and ships the object's state to [to_], which
       unpacks it (the transfer endpoint's receive pipeline); the
       requester resumes once the object has landed. *)
    let transfer resume =
      Machine.spawn (machine t) ~on:home
        (let* () = Thread.compute (Costs.send_pipeline c ~words) in
         Objspace.move t.space i ~to_;
         fun _ctx k ->
           Transport.dispatch t.tp t.transfer_k ~src:home ~dst:to_ ~words
             (fun _ctx2 k2 ->
               resume ();
               k2 ());
           k ())
    in
    (* A control message reaches the home first when the requester is
       elsewhere. *)
    let* () =
      if pid = home then Thread.return ()
      else Thread.compute (Costs.send_pipeline c ~words:2)
    in
    let* () =
      Thread.await (fun ~resume ->
          if pid = home then transfer resume
          else
            Transport.signal_app t.tp t.call_k ~src:pid ~dst:home ~words:2 transfer resume)
    in
    learn t ~pid i to_;
    Thread.return ()
  end

let call_pull t i ~result_words m =
  let c = costs t in
  let* () = Thread.compute c.Costs.forwarding_check in
  let* p = Thread.proc in
  let pid = Processor.id p in
  ignore result_words;
  if Objspace.home t.space i = pid then m (Objspace.state t.space i)
  else
    let* () = migrate_object t i ~to_:pid in
    m (Objspace.state t.space i)
