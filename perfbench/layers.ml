(* Per-layer unit costs and the attribution of host time to layers.

   Unit costs come from bechamel microbenchmarks that call each layer's
   public functions in a loop on a 2-processor machine — the
   message-passing set of plain message, call with arguments, call with
   a return, and sequential calls.  Every cost except [Sim]'s is taken
   net of the lower-layer work it contains: the exact events and
   messages one operation causes (counted on the microbenchmark's own
   machine) are priced at the [Sim] and [Network] unit costs and
   subtracted, as are the [Transport] operations a [Runtime] call makes.
   A workload's predicted host time is then the sum over layers of its
   exact operation counts times these unit costs. *)

open Cm_engine
open Cm_machine
open Cm_runtime

(* --- measurement -------------------------------------------------- *)

(* One microbenchmark: [run] performs [ops] operations of the layer,
   each causing exactly [events] simulator events and [messages] network
   messages. *)
type bench = { name : string; run : unit -> unit; ops : int; events : float; messages : float }

let plain ?(events = 0.) name run = { name; run; ops = 1; events; messages = 0. }

(* Fits per microbenchmark; the median is kept.  One fit alone swings by
   a fifth when a major GC cycle lands inside it. *)
let rounds = 5

(* What a bench measured: host ns per operation, with the events and
   messages each operation causes. *)
type gross = { bench : string; ns : float; per_events : float; per_messages : float }

(* Host ns per operation of every bench: bechamel OLS fits over growing
   batches, taken in interleaved rounds so that a slow phase of the host
   hits every bench alike.  Each round builds its benches afresh and
   keeps none of them: the RPC paths keep memory live per call, and a
   heap grown by earlier rounds would slow bechamel's GC stabilisation
   before every later fit.  No stabilisation between samples: it would
   cost more than the quota. *)
let ns_per_op ~quota (benches : unit -> bench list) =
  let open Bechamel in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second (quota /. float_of_int rounds)) ~stabilize:false ()
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let fit b =
    let elt = List.hd (Test.elements (Test.make ~name:b.name (Staged.stage b.run))) in
    let raw = Benchmark.run cfg [ Toolkit.Instance.monotonic_clock ] elt in
    let ns =
      match Analyze.OLS.estimates (Analyze.one ols Toolkit.Instance.monotonic_clock raw) with
      | Some [ est ] -> est /. float_of_int b.ops
      | Some _ | None -> nan
    in
    { bench = b.name; ns; per_events = b.events; per_messages = b.messages }
  in
  let fits = List.init rounds (fun _ -> List.map fit (benches ())) in
  List.mapi
    (fun i g ->
      let xs = List.sort compare (List.map (fun round -> (List.nth round i).ns) fits) in
      { g with ns = List.nth xs (rounds / 2) })
    (List.hd fits)

let two_procs () = Machine.create ~seed:1 ~n_procs:2 ~costs:Costs.software ()

(* Operations per sequential-call batch: one thread issues [batch] calls
   back to back, then the machine drains. *)
let batch = 64

(* A thread-level operation, run in sequential batches from processor 0;
   one batch up front counts the events and messages per operation. *)
let thread_bench name machine op =
  let left = ref 0 in
  let body =
    Thread.while_ctx
      (fun _ -> !left > 0)
      (fun c k ->
        decr left;
        op c k)
  in
  let run () =
    left := batch;
    Machine.spawn machine ~on:0 body;
    Machine.run machine
  in
  let e0 = Machine.events_fired machine and m0 = Network.total_messages machine.Machine.net in
  run ();
  let per n = float_of_int n /. float_of_int batch in
  {
    name;
    run;
    ops = batch;
    events = per (Machine.events_fired machine - e0);
    messages = per (Network.total_messages machine.Machine.net - m0);
  }

(* A 2-processor runtime with one object homed on each processor and a
   trivial method, for the per-call runtime paths. *)
let runtime_probe () =
  let machine = two_procs () in
  let rt = Runtime.create machine in
  let space : Obj.t Objspace.t = Objspace.create machine in
  let obj_at home = (Objspace.register space ~home (Obj.repr 0) :> int) in
  (machine, rt, space, obj_at)

let msite_bench name access ~home =
  let machine, rt, space, obj_at = runtime_probe () in
  let ms =
    Runtime.msite rt ~access ~space ~args_words:8 ~result_words:2
      ~frame_body:(fun c -> Runtime.msite_finish c 0)
      ~cps_body:(fun ~obj:_ ~a:_ ~b:_ -> Thread.return 0)
  in
  let obj = obj_at home in
  thread_bench name machine
    (Workloads.dropping (fun c _k dropk -> Runtime.msite_scoped ms ~obj ~a:0 ~b:0 c dropk))

(* [Runtime.scope] around one migrating access built by [access]. *)
let scoped_migrate_bench name access =
  let machine, rt, _, _ = runtime_probe () in
  thread_bench name machine (Thread.ignore_m (Runtime.scope rt ~result_words:2 (access rt)))

let sim_bench name ~delay =
  let s = Sim.create ~wheel_bits:12 () in
  let h = Sim.handler s (fun (_ : int) -> ()) in
  plain name (fun () ->
      Sim.post_after s ~delay h 0;
      ignore (Sim.step s))

(* Every microbenchmark, on fresh machines; [zipf] is shared, it is only
   read. *)
let benches zipf () =
  [
    sim_bench "sim" ~delay:1;
    sim_bench "sim-overflow" ~delay:(1 lsl 14);
    (let m = two_procs () in
     let kind = Network.kind m.Machine.net "bench" in
     let hid = Sim.handler m.Machine.sim (fun (_ : int) -> ()) in
     plain ~events:1. "network" (fun () ->
         ignore (Network.post_k m.Machine.net ~src:0 ~dst:1 ~words:8 ~kind ~hid ~arg:1);
         ignore (Sim.step m.Machine.sim)));
    (let m = two_procs () in
     let tp = Machine.transport m in
     let req : unit Thread.t Transport.kind = Transport.kind tp "bench_call" in
     Transport.Endpoint.register_all tp ~kind:req Fun.id;
     let reply : unit Transport.kind = Transport.kind tp "bench_reply" in
     let body = Thread.return () in
     thread_bench "transport-call" m (fun c k ->
         Transport.call tp ~req ~reply ~dst:1 ~args_words:8 ~result_words:2 body c k));
    (let m = two_procs () in
     let tp = Machine.transport m in
     let kind : unit Transport.kind = Transport.kind tp "bench_migrate" in
     thread_bench "transport-migrate" m (fun c k ->
         let dst = Machine.proc m (1 - Processor.id (Thread.Frame.proc c)) in
         Transport.migrate tp kind ~dst ~words:8 ~fresh:true c k));
    msite_bench "msite-local" Runtime.Migrate ~home:0;
    msite_bench "msite-rpc" Runtime.Rpc ~home:1;
    msite_bench "msite-migrate" Runtime.Migrate ~home:1;
    scoped_migrate_bench "site-migrate" (fun rt ->
        Runtime.site_call
          (Runtime.site rt ~access:Runtime.Migrate ~home:1 ~args_words:8 ~result_words:2
             (Thread.return 0)));
    scoped_migrate_bench "call-scope-migrate" (fun rt ->
        Runtime.call rt ~access:Runtime.Migrate ~home:1 ~args_words:8 ~result_words:2
          (Thread.return 0));
    (let space : unit Objspace.t = Objspace.create (two_procs ()) in
     for i = 0 to 1023 do
       ignore (Objspace.register space ~home:(i land 1) ())
     done;
     let i = ref 0 in
     plain "objspace-home" (fun () ->
         i := (!i + 1) land 1023;
         ignore (Objspace.home space (Objspace.id_of_int !i))));
    (let r = Rng.create ~seed:1 in
     plain "rng-int" (fun () -> ignore (Rng.int r 1000)));
    (let r = Rng.create ~seed:1 in
     plain "zipf-sample" (fun () -> ignore (Zipf.sample zipf r)));
  ]

type costs = {
  sim : float;  (* Sim.post + step of one handler event *)
  sim_overflow : float;  (* the same, scheduled past the calendar wheel *)
  network : float;  (* Network.post_k, net of its event *)
  call : float;  (* Transport.call round trip, net of events and messages *)
  migrate : float;  (* one Transport.migrate hop, ditto *)
  msite_local : float;  (* Runtime.msite_scoped on a local object, net of all the above *)
  msite_rpc : float;
  msite_migrate : float;  (* migrate + scope return *)
  site_migrate : float;  (* Runtime.scope (Runtime.site_call) with a migration *)
  call_scope_migrate : float;  (* Runtime.scope (Runtime.call ~access:Migrate) *)
  objspace_home : float;
  rng_int : float;
  zipf_sample : float;
}

let measure ~quota ~zipf_n =
  let measured = ns_per_op ~quota (benches (Zipf.create ~s:1.3 ~n:zipf_n)) in
  let find name = List.find (fun g -> g.bench = name) measured in
  let ns name = (find name).ns in
  let sim = ns "sim" in
  let own_of network name =
    let g = find name in
    g.ns -. (g.per_events *. sim) -. (g.per_messages *. network)
  in
  let network = own_of 0. "network" in
  let own = own_of network in
  let call = own "transport-call" and migrate = own "transport-migrate" in
  let objspace_home = ns "objspace-home" in
  {
    sim;
    sim_overflow = ns "sim-overflow";
    network;
    call;
    migrate;
    msite_local = own "msite-local" -. objspace_home;
    msite_rpc = own "msite-rpc" -. call -. objspace_home;
    msite_migrate = own "msite-migrate" -. (2. *. migrate) -. objspace_home;
    site_migrate = own "site-migrate" -. (2. *. migrate);
    call_scope_migrate = own "call-scope-migrate" -. (2. *. migrate);
    objspace_home;
    rng_int = ns "rng-int";
    zipf_sample = ns "zipf-sample";
  }

(* --- counts and attribution --------------------------------------- *)

let kinds = [ "migrate"; "migrate_return"; "rpc"; "rpc_reply" ]

(* The exact operation counts of one finished run, read from the
   counters the machine and its transport already keep. *)
type counts = {
  events : int;
  messages : int;
  words : int;
  messages_of_kind : (string * int) list;
  posted : (string * int) list;
  delivered : (string * int) list;
  rpc_calls : int;
  migrations : int;
  local_calls : int;
  scope_returns : int;
  dispatches : int;
}

let counts machine =
  let stats = machine.Machine.stats and tp = Machine.transport machine in
  let per f = List.map (fun k -> (k, f k)) kinds in
  {
    events = Machine.events_fired machine;
    messages = Network.total_messages machine.Machine.net;
    words = Network.total_words machine.Machine.net;
    messages_of_kind = per (Network.messages_of_kind machine.Machine.net);
    posted = per (Transport.posted tp);
    delivered = per (Transport.delivered tp);
    rpc_calls = Stats.get stats "rt.rpc_calls";
    migrations = Stats.get stats "rt.migrations";
    local_calls = Stats.get stats "rt.local_calls";
    scope_returns = Stats.get stats "rt.scope_returns";
    dispatches = Stats.get stats "proc.dispatches";
  }

(* Predicted host seconds per layer.  Runtime migrations are priced at
   the migrate + scope-return unit of the workload's call path; local
   calls on every path at the method-site local unit. *)
let attribute (w : Workloads.t) (c : costs) (n : counts) ~requests =
  let f = float_of_int in
  let posted k = f (List.assoc k n.posted) in
  let migrate_unit =
    match w.path with
    | Workloads.Site -> c.site_migrate
    | Workloads.Generic -> c.call_scope_migrate
    | Workloads.Msite -> c.msite_migrate
  in
  let msite_calls =
    match w.path with
    | Workloads.Msite -> f (n.local_calls + n.rpc_calls + n.migrations)
    | Workloads.Site | Workloads.Generic -> 0.
  in
  let ns =
    [
      ("Sim", f n.events *. c.sim);
      ("Network", f n.messages *. c.network);
      ( "Transport",
        (posted "rpc" *. c.call) +. ((posted "migrate" +. posted "migrate_return") *. c.migrate) );
      ( "Runtime",
        (f n.local_calls *. c.msite_local)
        +. (f n.rpc_calls *. c.msite_rpc)
        +. (f n.migrations *. migrate_unit) );
      ("Objspace", msite_calls *. c.objspace_home);
      ( "Sampler",
        f requests
        *. ((f w.zipf_per_request *. c.zipf_sample) +. (f w.rng_per_request *. c.rng_int)) );
    ]
  in
  List.map (fun (layer, ns) -> (layer, ns *. 1e-9)) ns
