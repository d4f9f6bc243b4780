open Cm_engine

(* --- the engine -----------------------------------------------------

   A thread's blocking points are defunctionalized into the per-thread
   frame slots below: a suspension stores a step function and its
   operands into the context and hands the scheduler a closure
   preallocated at spawn (or the pooled [Sim] handler registered
   then), so holds, travels and requeues allocate nothing.  The monadic
   [bind]/[map] layer above runs as ordinary CPS over the same context.

   The only resumptions that leave the thread layer are those of
   [await]/[stall] and their frame forms [Frame.resume]/[Frame.stall_k].
   Each carries its suspension's generation (see [arm]), so one that
   fires twice — a duplicated or late RPC reply under fault injection,
   or a bug — is caught under [Check] and discarded otherwise.  The
   sanitizers and fault injection therefore run this same engine. *)

let obj_unit : Obj.t = Obj.repr 0

type engine = {
  (* Contexts of exited threads, ready for reuse: a stack in
     [free.(0 .. n_free - 1)] (see [recycle]/[reuse]). *)
  mutable free : ctx array;
  mutable n_free : int;
  mutable created : int;  (* contexts allocated, recycled or not *)
}

(* Field order is load-bearing for performance only: OCaml lays record
   fields out in declaration order, and a steady-state suspension touches
   [location], the op/continuation slots, and the scheduler closure —
   putting those first packs the whole hot set into the record's leading
   cache lines.  Cold identity/bookkeeping fields trail. *)
and ctx = {
  mutable location : Processor.t;
  eng : engine;
  (* Defunctionalized continuation frame.  A thread is sequential, so at
     any instant it has at most one pending suspension: one set of slots
     per context suffices, reused across every suspension of the
     thread's life.  Ownership convention (see DESIGN.md §15):
     [f_op]/[f_kop]/[f_k] plus [f_dst]/[f_i0]/[f_after] belong to the
     thread layer; [f_v0..f_v2]/[f_i1..f_i2]/[f_after2] to the transport
     chain in flight; [f_v3]/[f_i3] to the consumer driving it
     (runtime/objmig/shmem). *)
  mutable f_op : ctx -> unit;
  mutable f_kop : ctx -> Obj.t -> unit;
  mutable f_k : Obj.t;
  mutable f_v0 : Obj.t;
  (* The scheduler-facing closure, preallocated at spawn: every frame
     requeue re-points [f_op] and hands this out. *)
  mutable run_op : unit -> unit;
  (* The thread's pooled [Sim] handler, registered once at spawn: frame
     holds and network deliveries post (op_hid, 0) instead of storing
     [run_op] into the event, so the steady-state event pool carries only
     ints — no closure store (and no write barrier) per event. *)
  mutable op_hid : Sim.hid;
  (* Suspension generation: the generation of the pending (or last)
     [arm]ed suspension.  Only increases, and survives recycling. *)
  mutable gen : int;
  mutable f_dst : Processor.t;
  mutable f_i0 : int;
  mutable f_after : ctx -> unit;
  mutable f_after2 : ctx -> unit;
  mutable f_i1 : int;
  mutable f_i2 : int;
  mutable f_i3 : int;
  mutable f_v1 : Obj.t;
  mutable f_v2 : Obj.t;
  mutable f_v3 : Obj.t;
  (* Method-site registers (the m-lane): per-call operands of a fused
     per-object call (Runtime.Msite, Objmig, Replicate).  Disjoint from
     every slot above, and untouched by [Frame.travel] and the transport
     chains, so a fused call's operands survive its own migration
     without re-marshalling.  A method-site body owns them from entry to
     finish and must not start another method-site call meanwhile. *)
  mutable f_mi0 : int;
  mutable f_mi1 : int;
  mutable f_mi2 : int;
  mutable f_mi3 : int;
  mutable f_mi4 : int;
  mutable f_ms : Obj.t;
  mutable f_mv : Obj.t;
  (* The int stack: a frame body's own pending path (the B-tree insert's
     parents), [f_stk.(0 .. f_sp - 1)].  Pooled with the context: grown
     on demand, emptied but kept at recycling. *)
  mutable f_stk : int array;
  mutable f_sp : int;
  mutable thread_id : int;
  stream : Rng.t;
  mutable exit_fn : Obj.t -> unit;  (* on_exit, shared by every exit of this thread *)
  mutable run_exit : Obj.t -> unit;
}

let create_engine () = { free = [||]; n_free = 0; created = 0 }

let contexts_created e = e.created

let contexts_pooled e = e.n_free

let nop_op (_ : ctx) = ()

let nop_kop (_ : ctx) (_ : Obj.t) = ()

type 'a t = ctx -> ('a -> unit) -> unit

let return x _ k = k x

let bind m f c k = m c (fun x -> f x c k)

let map f m c k = m c (fun x -> k (f x))

module Infix = struct
  let ( let* ) = bind
  let ( let+ ) m f = map f m
end

let tid c k = k c.thread_id

let proc c k = k c.location

let rng c k = k c.stream

let compute n c k = Processor.hold c.location n k

let yield c k =
  let p = c.location in
  Processor.enqueue p k;
  Processor.release p

let sleep n c k =
  (* The wait is a pooled park slot, not a closure (see
     Processor.enqueue_after). *)
  let p = c.location in
  Processor.enqueue_after p ~delay:n k;
  Processor.release p

(* --- suspension generations ------------------------------------------

   [arm c what step] installs [step] as the pending resumption and
   returns the closure that fires it.  The closure carries the
   suspension's generation [g], the context's next one; it runs [step]
   only while the context is still at [g], and firing moves the context
   past it.  Generations never decrease and survive recycling, so a
   resumption that fires late or twice can run neither a later
   suspension's step nor a step of the context's next thread: it is
   discarded.  Under [Check] the closure also carries a one-shot token
   labelled [tid N: what], so a second firing raises at the faulting
   call and a suspension that never resumes stays outstanding in
   [Check.Linear]. *)
let fire c g (v : Obj.t) =
  if c.gen = g then begin
    c.gen <- g + 1;
    c.f_kop c v
  end

let arm c what step : 'a -> unit =
  let g = c.gen + 1 in
  c.gen <- g;
  c.f_kop <- step;
  if Check.enabled () then begin
    let tok = Check.Linear.make ~what:(Printf.sprintf "tid %d: %s" c.thread_id what) in
    fun v ->
      Check.Linear.use tok;
      fire c g (Obj.repr v)
  end
  else fun v -> fire c g (Obj.repr v)

(* --- await ---------------------------------------------------------- *)

let await_step c (v : Obj.t) =
  Processor.enqueue_app c.location (Obj.obj c.f_k : Obj.t -> unit) v

let await register c k =
  let p = c.location in
  c.f_k <- Obj.repr k;
  register ~resume:(arm c "Thread.await resume" await_step);
  Processor.release p

(* --- stall ---------------------------------------------------------- *)

let stall_step c (v : Obj.t) =
  let p = c.location in
  Processor.charge p (Sim.now (Processor.sim p) - c.f_i0);
  (Obj.obj c.f_k : Obj.t -> unit) v

let stall_arm c =
  c.f_i0 <- Sim.now (Processor.sim c.location);
  arm c "Thread.stall resume" stall_step

let stall register c k =
  c.f_k <- Obj.repr k;
  register ~resume:(stall_arm c)

(* --- travel --------------------------------------------------------- *)

(* Migration runs in three steps through [op_hid]/[run_op]: network
   delivery re-enqueues the thread at the destination; dispatch rebinds
   the location and holds the CPU for the receive-pipeline work; then
   the completion op ([f_after]) runs, still holding the CPU. *)
let travel_arrive c =
  let dst = c.f_dst in
  c.location <- dst;
  c.f_op <- c.f_after;
  Processor.hold_post dst c.f_i0 c.op_hid 0

let travel_deliver c =
  c.f_op <- travel_arrive;
  Processor.enqueue c.f_dst c.run_op

let frame_travel ~net ~dst ~words ~kind ~recv_work ~after c =
  let src = c.location in
  c.f_dst <- dst;
  c.f_i0 <- recv_work;
  c.f_after <- after;
  c.f_op <- travel_deliver;
  let (_ : int) =
    Network.post_k net ~src:(Processor.id src) ~dst:(Processor.id dst) ~words ~kind
      ~hid:c.op_hid ~arg:0
  in
  Processor.release src

let travel_finish c = (Obj.obj c.f_k : unit -> unit) ()

let travel_k ~net ~dst ~words ~kind ~recv_work c k =
  c.f_k <- Obj.repr k;
  frame_travel ~net ~dst ~words ~kind ~recv_work ~after:travel_finish c

(* --- spawning ------------------------------------------------------- *)

let default_exit (_ : Obj.t) = ()

(* First dispatch of a fresh thread: the body and its finish
   continuation were parked in the (otherwise untouched) frame slots at
   spawn, so starting a thread enqueues no closure. *)
let start_step c =
  let body = (Obj.obj c.f_v0 : ctx -> (Obj.t -> unit) -> unit) in
  let fin = (Obj.obj c.f_k : Obj.t -> unit) in
  c.f_v0 <- obj_unit;
  c.f_k <- obj_unit;
  body c fin

(* --- context recycling ------------------------------------------------

   A thread's context outlives the thread only as garbage: once its
   final continuation has run, nothing may resume it — a thread is
   sequential, its op-level resumptions ([run_op], the [op_hid]
   occurrence) have all fired, and any [arm]ed resumption still in
   flight (a duplicated reply) carries a generation the context has
   moved past.  So the context goes on its engine's free stack at exit,
   and the next spawn on the same machine rebinds it instead of
   allocating a record, two closures and a [Sim] handler.  Handler ids
   never enter event ordering, tids still come from the caller and
   streams from [Rng.split], so recycling is invisible to every
   digest. *)

let grow_free e c =
  let a = Array.make (max 8 (2 * Array.length e.free)) c in
  Array.blit e.free 0 a 0 e.n_free;
  e.free <- a

(* Exit side: clear every slot that could keep garbage alive, then push.
   [gen] stays: see [arm]. *)
let recycle c =
  let e = c.eng in
  c.f_op <- nop_op;
  c.f_kop <- nop_kop;
  c.f_k <- obj_unit;
  c.f_v0 <- obj_unit;
  c.f_v1 <- obj_unit;
  c.f_v2 <- obj_unit;
  c.f_v3 <- obj_unit;
  c.f_after <- nop_op;
  c.f_after2 <- nop_op;
  c.f_ms <- obj_unit;
  c.f_mv <- obj_unit;
  (* The int slots too, so a reused context is field for field a fresh
     one apart from its identity, closures, handler id and generation. *)
  c.f_i0 <- 0;
  c.f_i1 <- 0;
  c.f_i2 <- 0;
  c.f_i3 <- 0;
  c.f_mi0 <- 0;
  c.f_mi1 <- 0;
  c.f_mi2 <- 0;
  c.f_mi3 <- 0;
  c.f_mi4 <- 0;
  c.f_sp <- 0;
  c.exit_fn <- default_exit;
  if e.n_free = Array.length e.free then grow_free e c;
  Array.unsafe_set e.free e.n_free c;
  e.n_free <- e.n_free + 1

(* Spawn side: pop the newest recycled context and rebind its identity.
   The preallocated closures and the handler id stay.  Precondition:
   [e.n_free > 0]. *)
let reuse e ~tid ~split ~exit_fn p =
  let i = e.n_free - 1 in
  let c = Array.unsafe_get e.free i in
  e.n_free <- i;
  c.thread_id <- tid;
  c.location <- p;
  c.f_dst <- p;
  Rng.split_into split c.stream;
  c.exit_fn <- exit_fn;
  c

let fresh e ~tid ~split ~exit_fn p =
  e.created <- e.created + 1;
  let c =
    {
      thread_id = tid;
      location = p;
      stream = Rng.split split;
      eng = e;
      exit_fn;
      f_op = nop_op;
      f_kop = nop_kop;
      f_k = obj_unit;
      f_dst = p;
      f_i0 = 0;
      f_after = nop_op;
      f_after2 = nop_op;
      f_i1 = 0;
      f_i2 = 0;
      f_i3 = 0;
      f_v0 = obj_unit;
      f_v1 = obj_unit;
      f_v2 = obj_unit;
      f_v3 = obj_unit;
      f_mi0 = 0;
      f_mi1 = 0;
      f_mi2 = 0;
      f_mi3 = 0;
      f_mi4 = 0;
      f_ms = obj_unit;
      f_mv = obj_unit;
      f_stk = [||];
      f_sp = 0;
      gen = 0;
      run_op = ignore;
      op_hid = Sim.nil_handler;
      run_exit = ignore;
    }
  in
  c.run_op <- (fun () -> c.f_op c);
  c.op_hid <- Sim.handler (Processor.sim p) (fun _ -> c.f_op c);
  c.run_exit <-
    (fun v ->
      c.exit_fn v;
      Processor.release c.location;
      recycle c);
  c

(* Tid assignment belongs to the machine instance (Machine.spawn numbers
   threads from a per-machine counter): a process-global fallback here
   used to bleed tids — and with them the default RNG seeds — from one
   run into the next within a process, and would race across pool
   domains.  Callers now always say which tid they mean. *)
let spawn ~tid ~split ?on_exit ~engine:e p body =
  let exit_fn =
    match on_exit with Some f -> (Obj.magic f : Obj.t -> unit) | None -> default_exit
  in
  let c =
    if e.n_free > 0 then reuse e ~tid ~split ~exit_fn p else fresh e ~tid ~split ~exit_fn p
  in
  let finish : Obj.t -> unit =
    if Check.enabled () then
      Check.linear ~what:(Printf.sprintf "tid %d: Thread.spawn exit" tid) c.run_exit
    else c.run_exit
  in
  c.f_v0 <- Obj.repr body;
  c.f_k <- Obj.repr finish;
  c.f_op <- start_step;
  Processor.enqueue p c.run_op

(* --- loop combinators ----------------------------------------------

   The recursion is threaded through one mutable cursor and one closure
   per loop instead of a fresh bind closure per iteration.  Evaluation
   timing matches the bind-chain originals: the first [f i] (or [cond])
   runs when the loop value is built, subsequent ones right before the
   iteration they produce. *)

let iter_list f = function
  | [] -> return ()
  | x :: rest ->
    let m0 = f x in
    fun c k ->
      let cur = ref rest in
      let rec step () =
        match !cur with
        | [] -> k ()
        | y :: tl ->
          cur := tl;
          f y c step
      in
      m0 c step

let repeat n f =
  if n <= 0 then return ()
  else
    let m0 = f 0 in
    fun c k ->
      let i = ref 1 in
      let rec step () =
        let j = !i in
        if j >= n then k ()
        else begin
          i := j + 1;
          f j c step
        end
      in
      m0 c step

let while_ cond body =
  if not (cond ()) then return ()
  else
    fun c k ->
    let rec again () = if cond () then body c again else k () in
    body c again

(* Same loop, but the condition sees the thread's context (for example
   its current processor, [Frame.proc c]), which a [unit -> bool]
   condition cannot reach.  The continuation structure is identical to
   [while_] — no suspension added or removed, digests unchanged. *)
let while_ctx cond body c k =
  let rec again () = if cond c then body c again else k () in
  body c again

let ignore_m m c k = m c (fun _ -> k ())

(* --- the frame calling convention, for transport and consumers ------ *)

module Frame = struct
  type nonrec ctx = ctx

  let proc c = c.location

  let save_k c (k : 'a -> unit) = c.f_k <- Obj.repr k

  let take_k c = (Obj.obj c.f_k : Obj.t -> unit)

  let call_k c (v : 'a) = (Obj.obj c.f_k : Obj.t -> unit) (Obj.repr v)

  let setv0 c v = c.f_v0 <- Obj.repr v
  let setv1 c v = c.f_v1 <- Obj.repr v
  let setv2 c v = c.f_v2 <- Obj.repr v
  let setv3 c v = c.f_v3 <- Obj.repr v

  let getv0 c = Obj.obj c.f_v0
  let getv1 c = Obj.obj c.f_v1
  let getv2 c = Obj.obj c.f_v2
  let getv3 c = Obj.obj c.f_v3

  let seti1 c i = c.f_i1 <- i
  let seti2 c i = c.f_i2 <- i
  let seti3 c i = c.f_i3 <- i

  let geti1 c = c.f_i1
  let geti2 c = c.f_i2
  let geti3 c = c.f_i3

  (* The method-site lane (see the ctx declaration): five int operands,
     the site record, and one boxed operand. *)
  let setm0 c i = c.f_mi0 <- i
  let setm1 c i = c.f_mi1 <- i
  let setm2 c i = c.f_mi2 <- i
  let setm3 c i = c.f_mi3 <- i
  let setm4 c i = c.f_mi4 <- i

  let getm0 c = c.f_mi0
  let getm1 c = c.f_mi1
  let getm2 c = c.f_mi2
  let getm3 c = c.f_mi3
  let getm4 c = c.f_mi4

  let set_mlane c ms m0 m1 m2 m3 m4 =
    c.f_ms <- Obj.repr ms;
    c.f_mi0 <- m0;
    c.f_mi1 <- m1;
    c.f_mi2 <- m2;
    c.f_mi3 <- m3;
    c.f_mi4 <- m4

  let setms c v = c.f_ms <- Obj.repr v
  let getms c = Obj.obj c.f_ms
  let setmv c v = c.f_mv <- Obj.repr v
  let getmv c = Obj.obj c.f_mv

  let[@inline never] grow_stack c =
    let a = Array.make (max 8 (2 * Array.length c.f_stk)) 0 in
    Array.blit c.f_stk 0 a 0 c.f_sp;
    c.f_stk <- a

  let push c i =
    if c.f_sp = Array.length c.f_stk then grow_stack c;
    Array.unsafe_set c.f_stk c.f_sp i;
    c.f_sp <- c.f_sp + 1

  let depth c = c.f_sp

  let top c =
    if c.f_sp = 0 then invalid_arg "Thread.Frame.top: empty stack";
    Array.unsafe_get c.f_stk (c.f_sp - 1)

  let pop c =
    let i = top c in
    c.f_sp <- c.f_sp - 1;
    i

  let rng c = c.stream

  let set_after2 c op = c.f_after2 <- op

  let run_after2 c = c.f_after2 c

  let hold_then c n op =
    c.f_op <- op;
    Processor.hold_post c.location n c.op_hid 0

  let enqueue_then c op =
    c.f_op <- op;
    Processor.enqueue c.location c.run_op

  let resume c step = arm c "Thread.await resume" step

  let stall_k = stall_arm

  let travel = frame_travel

  let release c = Processor.release c.location
end
