(* A fixed pool of domains behind a mutex/condition work queue.  Results
   travel through per-task slots (never through shared accumulators), so
   completion order cannot affect what callers observe; awaiting in
   submission order reproduces the sequential order exactly. *)

type job = unit -> unit

type t = {
  lock : Mutex.t;
  work_ready : Condition.t;
  queue : job Queue.t;
  mutable accepting : bool;
  mutable workers : unit Domain.t array;
}

type 'a outcome =
  | Pending
  | Done of 'a
  | Raised of exn * Printexc.raw_backtrace

type 'a task = {
  t_lock : Mutex.t;
  t_done : Condition.t;
  mutable outcome : 'a outcome;
}

let rec worker_loop pool =
  Mutex.lock pool.lock;
  while Queue.is_empty pool.queue && pool.accepting do
    Condition.wait pool.work_ready pool.lock
  done;
  if Queue.is_empty pool.queue then Mutex.unlock pool.lock (* shut down and drained *)
  else begin
    let job = Queue.pop pool.queue in
    Mutex.unlock pool.lock;
    job ();
    worker_loop pool
  end

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: need at least one domain";
  let pool =
    {
      lock = Mutex.create ();
      work_ready = Condition.create ();
      queue = Queue.create ();
      accepting = true;
      workers = [||];
    }
  in
  pool.workers <- Array.init domains (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let submit pool f =
  let task = { t_lock = Mutex.create (); t_done = Condition.create (); outcome = Pending } in
  let job () =
    (* A fresh Linear token registry per job: tokens cannot leak across
       jobs sharing a worker domain. *)
    let outcome =
      match Check.Linear.scoped f with
      | v -> Done v
      | exception e -> Raised (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock task.t_lock;
    task.outcome <- outcome;
    Condition.signal task.t_done;
    Mutex.unlock task.t_lock
  in
  Mutex.lock pool.lock;
  if not pool.accepting then begin
    Mutex.unlock pool.lock;
    invalid_arg "Pool.submit: pool is shut down"
  end
  else begin
    Queue.push job pool.queue;
    Condition.signal pool.work_ready;
    Mutex.unlock pool.lock;
    task
  end

let await task =
  Mutex.lock task.t_lock;
  let rec settled () =
    match task.outcome with
    | Pending ->
      Condition.wait task.t_done task.t_lock;
      settled ()
    | (Done _ | Raised _) as o -> o
  in
  let outcome = settled () in
  Mutex.unlock task.t_lock;
  match outcome with
  | Done v -> v
  | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

let run_all pool jobs = List.map (submit pool) jobs |> List.map await

let shutdown pool =
  Mutex.lock pool.lock;
  pool.accepting <- false;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.lock;
  Array.iter Domain.join pool.workers;
  pool.workers <- [||]
