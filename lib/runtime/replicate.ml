open Cm_engine
open Cm_machine
open Thread.Infix

(* Replica presence is a bitset (one bit per processor, the Sharers
   trick applied to the object layer) plus a flat payload table, instead
   of the former ['a option array]: at 1024 simulated processors the
   holder set costs 128 bytes instead of 8 KB of pointers, installs
   write no [Some] box, and the replica count is a maintained word
   rather than an O(n) scan.  Payload slots are [Obj.t] and only read
   when the processor's presence bit is set, so no [None] sentinel is
   needed and ['a] may be any type (including float) without array
   specialization hazards. *)
type 'a t = {
  rt : Runtime.t;
  home : int;
  words_of : 'a -> int;
  n_procs : int;
  present : Bytes.t;  (* bit [p] set iff processor [p] holds a replica *)
  copies : Obj.t array;  (* payload slot for [p]; valid iff bit [p] set *)
  mutable n_replicas : int;
  mutable master : 'a;
  mutable version : int;
  upd_k : 'a Transport.kind;
  (* The migrating update's body (built once in [create]): the fan-out,
     reading the new value and payload size from the method-site lane,
     which rides the migration to the home. *)
  mutable upd_body : unit Thread.t;
  (* Pooled holder-set snapshots: the fan-out walks a copy of [present]
     taken when the update was issued (a fetch landing mid-fan-out must
     not join it).  Pooled because concurrent updates to the same object
     each need their own snapshot. *)
  mutable scr : Bytes.t array;
  mutable scr_free : int array;
  mutable scr_free_top : int;
}

let holds t pid = Char.code (Bytes.unsafe_get t.present (pid lsr 3)) land (1 lsl (pid land 7)) <> 0

let install t pid v =
  if not (holds t pid) then begin
    let byte = pid lsr 3 in
    Bytes.unsafe_set t.present byte
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.present byte) lor (1 lsl (pid land 7))));
    t.n_replicas <- t.n_replicas + 1
  end;
  t.copies.(pid) <- Obj.repr v

let stats t = (Runtime.machine t.rt).Machine.stats

let costs t = (Runtime.machine t.rt).Machine.costs

(* --- the fused update fan-out --------------------------------------- *)

let scr_alloc t =
  if t.scr_free_top = 0 then begin
    let cap = Array.length t.scr in
    let ncap = 2 * cap in
    let len = Bytes.length t.present in
    let ns = Array.make ncap Bytes.empty in
    Array.blit t.scr 0 ns 0 cap;
    for j = cap to ncap - 1 do
      ns.(j) <- Bytes.create len
    done;
    let nf = Array.make ncap 0 in
    t.scr <- ns;
    t.scr_free <- nf;
    for j = 0 to cap - 1 do
      t.scr_free.(j) <- cap + j
    done;
    t.scr_free_top <- cap
  end;
  t.scr_free_top <- t.scr_free_top - 1;
  t.scr_free.(t.scr_free_top)

let scr_release t slot =
  t.scr_free.(t.scr_free_top) <- slot;
  t.scr_free_top <- t.scr_free_top + 1

(* Highest snapshot holder at or below [pid], or -1: the fan-out posts
   in descending processor order, exactly as the former holder list
   (ascending scan with prepend) produced. *)
let rec scr_scan scr pid =
  if pid < 0 then -1
  else if Char.code (Bytes.unsafe_get scr (pid lsr 3)) land (1 lsl (pid land 7)) <> 0 then pid
  else scr_scan scr (pid - 1)

(* One fan-out step: the preceding hold paid the send pipeline for the
   holder in [m1]; dispatch to it and line up the next holder.  Lane
   use: ms = table, mv = new value, m0 = payload words, m1 = holder
   cursor, m2 = per-holder send cost, m3 = snapshot slot. *)
let rec upd_fan_step c =
  let t : Obj.t t = Thread.Frame.getms c in
  let p = Thread.Frame.getm1 c in
  Transport.dispatch (Runtime.transport t.rt) t.upd_k
    ~src:(Processor.id (Thread.Frame.proc c))
    ~dst:p ~words:(Thread.Frame.getm0 c) (Thread.Frame.getmv c);
  let slot = Thread.Frame.getm3 c in
  let q = scr_scan t.scr.(slot) (p - 1) in
  if q < 0 then begin
    scr_release t slot;
    Thread.Frame.call_k c ()
  end
  else begin
    Thread.Frame.setm1 c q;
    Thread.Frame.hold_then c (Thread.Frame.getm2 c) upd_fan_step
  end

(* The update fan-out, run at the home under either mechanism: on the
   requester's own context when it migrated there (or is there), on the
   server thread under RPC ([upd_serve]).  It pays one send pipeline per
   snapshot holder and dispatches to it, in descending processor order
   (the order the digests encode).  The snapshot, master install and
   counter bump happened at the requester when the update was issued. *)
let upd_body_run t c k =
  let slot = Thread.Frame.getm3 c in
  let first = scr_scan t.scr.(slot) (t.n_procs - 1) in
  if first < 0 then begin
    scr_release t slot;
    k ()
  end
  else begin
    Thread.Frame.save_k c k;
    Thread.Frame.setm1 c first;
    Thread.Frame.hold_then c (Thread.Frame.getm2 c) upd_fan_step
  end

let create rt ~home ~words_of v =
  let machine = Runtime.machine rt in
  if home < 0 || home >= Machine.n_procs machine then invalid_arg "Replicate.create: bad home";
  let n_procs = Machine.n_procs machine in
  let tp = Runtime.transport rt in
  let upd_k = Transport.kind tp "repl_update" in
  let scr_len = (n_procs + 7) / 8 in
  let t =
    {
      rt;
      home;
      words_of;
      n_procs;
      present = Bytes.make scr_len '\000';
      copies = Array.make n_procs (Obj.repr 0);
      n_replicas = 0;
      master = v;
      version = 0;
      upd_k;
      upd_body = Thread.return ();
      scr = Array.init 2 (fun _ -> Bytes.create scr_len);
      scr_free = [| 0; 1 |];
      scr_free_top = 2;
    }
  in
  t.upd_body <- (fun c k -> upd_body_run t c k);
  (* The update fan-out delivers the new value to each holder: the
     handler thread (which already paid the receive pipeline) installs
     it in the local replica slot.  Saturated — a steady-state delivery
     allocates nothing in the handler. *)
  Transport.Endpoint.register_all tp ~kind:upd_k (fun v c k ->
      install t (Processor.id (Thread.Frame.proc c)) v;
      k ());
  t


(* A replica read costs a few cycles of pointer chasing. *)
let local_read_cost = 4

(* A replica miss at [pid] fetches a copy from the home with an
   ordinary RPC and installs it: cold by construction, so it stays a
   generic monad. *)
let read_miss t pid =
  Stats.incr (stats t) "repl.fetches";
  let* v =
    Runtime.call t.rt ~access:Runtime.Rpc ~home:t.home ~args_words:2
      ~result_words:(t.words_of t.master)
      (let* () = Thread.compute local_read_cost in
       Thread.return t.master)
  in
  install t pid v;
  Thread.return v

let read_home_step c =
  let t : Obj.t t = Thread.Frame.getms c in
  Thread.Frame.call_k c t.master

let read_copy_step c =
  let t : Obj.t t = Thread.Frame.getms c in
  Thread.Frame.call_k c t.copies.(Processor.id (Thread.Frame.proc c))

(* Reads at the home or at a holder — the hot path of a read-mostly
   workload — run as one held step over the frame, no binds, no
   boxes. *)
let read t c k =
  let pid = Processor.id (Thread.Frame.proc c) in
  if pid = t.home then begin
    Thread.Frame.save_k c k;
    Thread.Frame.setms c t;
    Thread.Frame.hold_then c local_read_cost read_home_step
  end
  else if holds t pid then begin
    Stats.incr (stats t) "repl.local_reads";
    Thread.Frame.save_k c k;
    Thread.Frame.setms c t;
    Thread.Frame.hold_then c local_read_cost read_copy_step
  end
  else read_miss t pid c k

(* The issue-time effects of an update, at the requester before the
   forwarding check: install the new master and bump the counters.
   Only the fan-out itself runs at the home. *)
let issue t v =
  t.master <- v;
  t.version <- t.version + 1;
  Stats.incr (stats t) "repl.updates"

(* Load the fan-out's operands into the m-lane, with a pooled copy of
   the holder set [holders] for it to walk. *)
let load_lane t c v ~words holders =
  let slot = scr_alloc t in
  Bytes.blit holders 0 t.scr.(slot) 0 (Bytes.length holders);
  Thread.Frame.setms c t;
  Thread.Frame.setmv c v;
  Thread.Frame.setm0 c words;
  Thread.Frame.setm2 c (Costs.send_pipeline (costs t) ~words);
  Thread.Frame.setm3 c slot

(* The RPC request's server stub, run by the server thread at the home
   (as [Runtime.msite_serve] is): load the thread's own m-lane from the
   snapshot copied at issue and run the fan-out.  Each copy of a
   duplicated request takes and releases its own pooled slot, and a
   dropped one takes none. *)
let upd_serve t snap v ~words c k =
  load_lane t c v ~words snap;
  upd_body_run t c k

(* One update, either mechanism, one fan-out ([upd_body_run]).  Under
   [Migrate] the lane, snapshot slot included, rides the migration to
   the home; under [Rpc] the request carries a copy of the snapshot to
   the server stub. *)
let update t ~access v c k =
  let words = t.words_of v in
  match access with
  | Runtime.Migrate ->
    load_lane t c v ~words t.present;
    issue t v;
    Runtime.call t.rt ~access ~home:t.home ~args_words:words ~result_words:1 t.upd_body c k
  | Runtime.Rpc ->
    let snap = Bytes.copy t.present in
    issue t v;
    Runtime.call t.rt ~access ~home:t.home ~args_words:words ~result_words:1
      (* lint: allow hot-alloc an RPC update ships its snapshot copy and stub — one closure per update *)
      (upd_serve t snap v ~words)
      c k

let version t = t.version

let replicas t = t.n_replicas

let peek t = t.master
