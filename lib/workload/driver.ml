open Cm_engine
open Cm_machine

type spec = {
  requesters : int;
  first_proc : int;
  think : int;
  warmup : int;
  horizon : int;
}

let run machine spec request =
  if spec.requesters <= 0 then invalid_arg "Driver.run: no requesters";
  if spec.warmup >= spec.horizon then invalid_arg "Driver.run: warmup past horizon";
  let ops = ref 0 in
  let latency_sum = ref 0 in
  let latency_max = ref 0 in
  let words_at_warmup = ref 0 in
  let messages_at_warmup = ref 0 in
  let hits_at_warmup = ref 0 in
  let misses_at_warmup = ref 0 in
  let net = machine.Machine.net in
  let stats = machine.Machine.stats in
  Sim.at machine.Machine.sim spec.warmup (fun () ->
      words_at_warmup := Network.total_words net;
      messages_at_warmup := Network.total_messages net;
      hits_at_warmup := Stats.get stats "cache.hits";
      misses_at_warmup := Stats.get stats "cache.misses");
  (* "Now" for a running thread: its current processor's clock. *)
  let tnow c = Sim.now (Processor.sim (Thread.Frame.proc c)) in
  for i = 0 to spec.requesters - 1 do
    let req = request i in
    let started = ref 0 in
    (* The iteration body in direct style: a [let*] chain here would
       re-build its partial applications and continuation closures every
       iteration (measurably — tens of words per request).  [while_]
       applies the body to the same (ctx, k) pair each time around, so
       the post-request continuation is built on the first iteration and
       reused for the rest of the thread's life.  No suspension is added
       or removed relative to the bind chain: event order, and hence
       every digest, is unchanged. *)
    let after_req : (unit -> unit) option ref = ref None in
    Machine.spawn machine ~on:(spec.first_proc + i)
      (Thread.while_ctx
         (fun c -> tnow c < spec.horizon)
         (fun c k ->
           let after =
             match !after_req with
             | Some f -> f
             | None ->
               let f () =
                 if tnow c >= spec.warmup then begin
                   incr ops;
                   let latency = tnow c - !started in
                   latency_sum := !latency_sum + latency;
                   if latency > !latency_max then latency_max := latency
                 end;
                 if spec.think > 0 then Thread.sleep spec.think c k else k ()
               in
               after_req := Some f;
               f
           in
           started := tnow c;
           req c after))
  done;
  Machine.run ~until:spec.horizon machine;
  let hits = Stats.get stats "cache.hits" - !hits_at_warmup in
  let misses = Stats.get stats "cache.misses" - !misses_at_warmup in
  let accesses = hits + misses in
  Metrics.compute ~ops:!ops
    ~measured_cycles:(spec.horizon - spec.warmup)
    ~words:(Network.total_words net - !words_at_warmup)
    ~messages:(Network.total_messages net - !messages_at_warmup)
    ~cache_hit_rate:
      (if accesses = 0 then nan else float_of_int hits /. float_of_int accesses)
    ~mean_latency:(if !ops = 0 then nan else float_of_int !latency_sum /. float_of_int !ops)
    ~max_latency:!latency_max ()
(* A machine without a cache-coherent memory system reports [nan]: the
   cache counters live in the machine's shared statistics registry. *)
