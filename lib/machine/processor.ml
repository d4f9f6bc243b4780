open Cm_engine

(* The ready queue is a power-of-two ring of (function, argument) pairs
   rather than a ring of thunks: enqueueing a resumption stores the
   continuation and its value in two array slots, so waking a thread
   needs no [fun () -> k v] wrapper — every thread yield, sleep, wakeup,
   and message dispatch goes through here.  The pairs are packed with
   [Obj] exactly as [Sharers] packs its small/big representations: the
   two parallel arrays are created with an [int] placeholder (so neither
   is a flat float array) and a slot is only ever applied to the
   argument stored with it. *)

type task = Obj.t -> unit

let nop_task (_ : Obj.t) = ()

let unit_arg : Obj.t = Obj.repr 0

type t = {
  id : int;
  sim : Sim.t;
  dispatches : Stats.counter;
  scheduler_cost : int;
  hid : Sim.hid;  (* pooled dispatch handler: pops and runs the ring head *)
  wake_hid : Sim.hid;  (* pooled delayed-enqueue handler: arg = park slot *)
  mutable ring_fn : task array;
  mutable ring_arg : Obj.t array;
  mutable head : int;  (* index of the next task to dispatch *)
  mutable len : int;
  mutable busy : bool;
  mutable busy_cycles : int;
  (* Park pool: thunks waiting out a [Sim] delay before being enqueued
     (Thread.sleep).  A parked thunk is an int slot; the pooled
     [wake_hid] handler moves it to the ready ring when the delay
     elapses, so a sleep allocates nothing. *)
  mutable park_fn : task array;
  mutable park_free : int array;  (* free slot stack: [0, park_free_top) *)
  mutable park_free_top : int;
}

let id p = p.id

let sim p = p.sim

let is_busy p = p.busy

let queue_length p = p.len

let busy_cycles p = p.busy_cycles

let utilization p ~now = if now = 0 then 0. else float_of_int p.busy_cycles /. float_of_int now

let hold p n k =
  assert (p.busy);
  if n < 0 then invalid_arg "Processor.hold: negative duration";
  p.busy_cycles <- p.busy_cycles + n;
  Sim.after p.sim n k

(* [hold] with a pooled handler occurrence instead of a closure event:
   the event carries (hid, arg) ints only, so scheduling and recycling it
   never store a pointer (see Thread's per-context [op_hid]). *)
let hold_post p n hid arg =
  assert p.busy;
  if n < 0 then invalid_arg "Processor.hold: negative duration";
  p.busy_cycles <- p.busy_cycles + n;
  Sim.post_after p.sim ~delay:n hid arg

let charge p n =
  assert (p.busy);
  if n < 0 then invalid_arg "Processor.charge: negative duration";
  p.busy_cycles <- p.busy_cycles + n

(* Run the task at the head of the ready ring.  The pop happens here, at
   the dispatch event's fire time, not when the dispatch is scheduled:
   the busy flag guarantees at most one dispatch event is in flight per
   processor, enqueues only ever append, and nothing else dequeues — so
   the head task is the same either way, and leaving it in the ring
   means the dispatch event itself carries no closure (see [dispatch]). *)
let run_head p =
  (* Ring indices are masked by the (power-of-two) capacity, so the
     unchecked accesses cannot escape the arrays. *)
  let i = p.head in
  let task = Array.unsafe_get p.ring_fn i in
  let arg = Array.unsafe_get p.ring_arg i in
  Array.unsafe_set p.ring_fn i nop_task;
  Array.unsafe_set p.ring_arg i unit_arg;
  p.head <- (i + 1) land (Array.length p.ring_fn - 1);
  p.len <- p.len - 1;
  task arg

let grow p =
  let cap = Array.length p.ring_fn in
  let ring_fn = Array.make (2 * cap) nop_task in
  let ring_arg = Array.make (2 * cap) unit_arg in
  for i = 0 to p.len - 1 do
    let j = (p.head + i) land (cap - 1) in
    ring_fn.(i) <- p.ring_fn.(j);
    ring_arg.(i) <- p.ring_arg.(j)
  done;
  p.ring_fn <- ring_fn;
  p.ring_arg <- ring_arg;
  p.head <- 0

(* Dispatch the next ready task, charging the scheduler cost.  The task
   runs synchronously at the end of the dispatch delay; it is expected to
   schedule its own continuation chain and ultimately call [release].
   The dispatch event is a pooled handler occurrence — the task stays in
   the ring until it fires ([run_head]), so dispatching stores no
   closure into the event queue. *)
let dispatch p =
  if p.len > 0 then begin
    p.busy <- true;
    Stats.Counter.incr p.dispatches;
    p.busy_cycles <- p.busy_cycles + p.scheduler_cost;
    Sim.post_after p.sim ~delay:p.scheduler_cost p.hid 0
  end

let release p =
  assert (p.busy);
  p.busy <- false;
  dispatch p

let enqueue_obj p (fn : task) (arg : Obj.t) =
  if p.len = Array.length p.ring_fn then grow p;
  let i = (p.head + p.len) land (Array.length p.ring_fn - 1) in
  Array.unsafe_set p.ring_fn i fn;
  Array.unsafe_set p.ring_arg i arg;
  p.len <- p.len + 1;
  if not p.busy then dispatch p

let enqueue p (task : unit -> unit) =
  (* A [unit -> unit] task applied to the stored unit argument is the
     thunk call it always was; no wrapper is built. *)
  enqueue_obj p (Obj.magic task : task) unit_arg

let enqueue_app p (k : 'a -> unit) (v : 'a) =
  enqueue_obj p (Obj.magic k : task) (Obj.repr v)

(* --- delayed enqueues (the park pool) ------------------------------- *)

(* Move a parked thunk to the ready ring once its delay elapsed. *)
let wake p slot =
  let fn = p.park_fn.(slot) in
  p.park_fn.(slot) <- nop_task;
  p.park_free.(p.park_free_top) <- slot;
  p.park_free_top <- p.park_free_top + 1;
  enqueue_obj p fn unit_arg

let park_grow p =
  let cap = Array.length p.park_fn in
  let park_fn = Array.make (2 * cap) nop_task in
  Array.blit p.park_fn 0 park_fn 0 cap;
  let park_free = Array.make (2 * cap) 0 in
  Array.blit p.park_free 0 park_free 0 p.park_free_top;
  for i = 0 to cap - 1 do
    park_free.(p.park_free_top + i) <- cap + i
  done;
  p.park_fn <- park_fn;
  p.park_free <- park_free;
  p.park_free_top <- p.park_free_top + cap

let enqueue_after p ~delay (task : unit -> unit) =
  if p.park_free_top = 0 then park_grow p;
  p.park_free_top <- p.park_free_top - 1;
  let slot = p.park_free.(p.park_free_top) in
  p.park_fn.(slot) <- (Obj.magic task : task);
  Sim.post_after p.sim ~delay p.wake_hid slot

let parked p = Array.length p.park_fn - p.park_free_top

let park_capacity p = Array.length p.park_fn

let ring_capacity p = Array.length p.ring_fn

let create ~sim ~stats ~scheduler_cost ~id =
  (* The dispatch and wake handlers close over the processor record,
     which itself holds the handler ids; tie the knot through a cell. *)
  let self = ref None in
  let hid =
    Sim.handler sim (fun _ ->
        match !self with Some p -> run_head p | None -> assert false)
  in
  let wake_hid =
    Sim.handler sim (fun slot ->
        match !self with Some p -> wake p slot | None -> assert false)
  in
  let p =
    {
      id;
      sim;
      dispatches = Stats.counter stats "proc.dispatches";
      scheduler_cost;
      hid;
      wake_hid;
      ring_fn = Array.make 8 nop_task;
      ring_arg = Array.make 8 unit_arg;
      head = 0;
      len = 0;
      busy = false;
      busy_cycles = 0;
      park_fn = Array.make 8 nop_task;
      park_free = Array.init 8 (fun i -> i);
      park_free_top = 8;
    }
  in
  self := Some p;
  p
