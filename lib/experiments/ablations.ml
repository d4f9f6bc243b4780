(* Ablations of the design choices DESIGN.md calls out.  Each one turns
   a single mechanism knob and shows its contribution:

   1. short-circuit returns (one result message per activation) vs
      returning through every intermediate hop;
   2. the conditional locality check vs always-migrate (the
      Rogers/Reppy/Hendren policy the paper's §5 contrasts itself with);
   3. software root replication's effect on the root processor's load
      (resource contention moving below the root, §4.2);
   4. the two hardware-support components, separately and together;
   5. shared-memory balancer synchronization (lock backoff, atomic
      fetch-and-toggle);
   6. B-tree shared-memory read concurrency control (reader-writer locks
      vs lock-free seqlock reads). *)

open Cm_engine
open Cm_machine
open Cm_runtime
open Cm_apps
open Thread.Infix

let fresh_machine ?(n = 16) ?(costs = Costs.software) () =
  Machine.create ~seed:17 ~n_procs:n ~costs ()

(* Each section writes its text to [b] and passes every machine it has
   run to [ran], in run order; {!section} turns that into a job. *)
let run_to_completion ~ran machine body =
  Machine.spawn machine ~on:0 body;
  Machine.run machine;
  ran machine

let drive ~ran machine spec request =
  let metrics = Cm_workload.Driver.run machine spec request in
  ran machine;
  metrics

(* -- 1. short-circuit returns ------------------------------------- *)

let chain_hops = 8

let short_circuit_ablation b ~ran =
  let chain scoped_per_hop =
    let machine = fresh_machine ~n:(chain_hops + 1) () in
    let rt = Runtime.create machine in
    let hop i =
      Runtime.call rt ~access:Runtime.Migrate ~home:(i + 1) ~args_words:8 ~result_words:2
        (Thread.compute 50)
    in
    let body =
      if scoped_per_hop then
        (* Every hop is its own activation: each one sends its result
           back to processor 0 before the next hop starts. *)
        Thread.repeat chain_hops (fun i -> Runtime.scope rt ~result_words:2 (hop i))
      else
        (* One activation hops down the whole chain; a single result
           message returns at the end. *)
        Runtime.scope rt ~result_words:2 (Thread.repeat chain_hops hop)
    in
    let finished = ref 0 in
    run_to_completion ~ran machine
      (let* () = body in
       finished := Machine.now machine;
       Thread.return ());
    (Network.total_messages machine.Machine.net, !finished)
  in
  let msgs_sc, cycles_sc = chain false in
  let msgs_rt, cycles_rt = chain true in
  Printf.bprintf b "1. Short-circuit returns over a %d-hop chain:\n" chain_hops;
  Printf.bprintf b "   one activation, short-circuited:   %3d messages, %6d cycles\n" msgs_sc
    cycles_sc;
  Printf.bprintf b "   per-hop activations, return home:  %3d messages, %6d cycles\n" msgs_rt
    cycles_rt

(* -- 2. conditional migration vs always-migrate -------------------- *)

let conditional_ablation b ~ran =
  let n = 6 and m = 5 in
  (* n accesses to each of m items; under the annotation only the first
     access per item migrates, under always-migrate every access sends a
     (possibly loopback) migration message. *)
  let count ~always =
    let machine = fresh_machine ~n:(m + 1) () in
    let rt = Runtime.create machine in
    let migrate_k = Network.kind machine.Machine.net "migrate" in
    run_to_completion ~ran machine
      (Runtime.scope rt ~result_words:2
         (Thread.iter_list
            (fun item ->
              Thread.repeat n (fun _ ->
                  let* p = Thread.proc in
                  if always && Processor.id p = item then
                    let* () = Thread.compute Costs.software.Costs.forwarding_check in
                    let* () =
                      Thread.travel_k ~net:machine.Machine.net ~dst:(Machine.proc machine item)
                        ~words:8 ~kind:migrate_k
                        ~recv_work:(Costs.recv_pipeline Costs.software ~words:8 ~new_thread:true)
                    in
                    Thread.compute 30
                  else
                    Runtime.call rt ~access:Runtime.Migrate ~home:item ~args_words:8
                      ~result_words:2 (Thread.compute 30)))
            (List.init m (fun i -> i + 1))));
    Network.total_messages machine.Machine.net
  in
  Printf.bprintf b "\n2. Conditional migration (%d accesses to each of %d items):\n" n m;
  Printf.bprintf b "   annotation (migrate only when remote): %3d messages (model m+1 = %d)\n"
    (count ~always:false) (m + 1);
  Printf.bprintf b "   always-migrate (RRH92-style):          %3d messages (model nm+1 = %d)\n"
    (count ~always:true)
    ((n * m) + 1)

(* -- 3. replication and the root processor ------------------------- *)

let replication_ablation b ~ran =
  let run replicate_root =
    let node_procs = 12 and requesters = 8 in
    let machine = fresh_machine ~n:(node_procs + requesters) () in
    let env = Sysenv.make machine in
    let tree =
      Btree.create env
        ~mode:(Btree.Messaging Cm_core.Prelude.Migrate)
        ~fanout:16 ~replicate_root
        ~node_procs:(Array.init node_procs (fun i -> i))
        ~keys:(List.init 1500 (fun i -> i * 11))
        ()
    in
    for r = 0 to requesters - 1 do
      Machine.spawn machine ~on:(node_procs + r)
        (Thread.repeat 40 (fun i -> Thread.ignore_m (Btree.lookup tree (i * 97 mod 16500))))
    done;
    Machine.run machine;
    ran machine;
    let root = Processor.busy_cycles (Machine.proc machine (Btree.root_home tree)) in
    let busy = Array.init node_procs (fun p -> Processor.busy_cycles (Machine.proc machine p)) in
    Array.sort (fun a b -> Int.compare b a) busy;
    (root, busy.(0), Machine.now machine)
  in
  let root0, hot0, t0 = run false in
  let root1, hot1, t1 = run true in
  Printf.bprintf b "\n3. Root replication and resource contention (lookup-only workload):\n";
  Printf.bprintf b "   without repl.: root proc %6d busy cycles (hottest %6d), run %6d cycles\n"
    root0 hot0 t0;
  Printf.bprintf b "   with repl.:    root proc %6d busy cycles (hottest %6d), run %6d cycles\n"
    root1 hot1 t1;
  Printf.bprintf b "   (the paper's S4.2: the bottleneck moves from the root to the level below)\n"

(* -- 4. hardware-support components -------------------------------- *)

let hardware_ablation b ~ran =
  (* Scheme carries hw as a whole; build the machine by hand to apply
     the two hardware estimates separately. *)
  let run costs =
    let machine = Machine.create ~seed:42 ~n_procs:(24 + 32) ~costs () in
    let env = Sysenv.make machine in
    let cn = Counting_network.create env (Counting_network.Messaging Cm_core.Prelude.Migrate) in
    drive ~ran machine
      { Cm_workload.Driver.requesters = 32; first_proc = 24; think = 0; warmup = 20_000;
        horizon = 150_000 }
      (fun i -> Thread.ignore_m (Counting_network.traverse cn ~input_wire:(i mod 8)))
  in
  let sw = run Costs.software in
  let ni = run (Costs.with_ni_registers Costs.software) in
  let goid = run (Costs.with_goid_hardware Costs.software) in
  let both = run Costs.hardware in
  Printf.bprintf b "\n4. Hardware-support components (CP counting network, 32 requesters):\n";
  List.iter
    (fun (name, (m : Cm_workload.Metrics.t)) ->
      Printf.bprintf b "   %-24s %6.3f req/1000cyc\n" name m.Cm_workload.Metrics.throughput)
    [ ("software", sw); ("+ NI registers", ni); ("+ GOID translation", goid); ("+ both (w/HW)", both) ]

(* -- 5. shared-memory balancer synchronization ---------------------- *)

let sm_sync_ablation b ~ran =
  let run ~sm_sync ~lock_backoff =
    let machine =
      Machine.create ~seed:42 ~n_procs:(24 + 32) ~costs:Costs.software ()
    in
    let env = Sysenv.make machine in
    let cn = Counting_network.create env ~sm_sync ~lock_backoff Counting_network.Shared_memory in
    drive ~ran machine
      { Cm_workload.Driver.requesters = 32; first_proc = 24; think = 0; warmup = 20_000;
        horizon = 150_000 }
      (fun i -> Thread.ignore_m (Counting_network.traverse cn ~input_wire:(i mod 8)))
  in
  Printf.bprintf b "\n5. SM balancer synchronization (32 requesters):\n";
  List.iter
    (fun (name, sm_sync, lock_backoff) ->
      let m = run ~sm_sync ~lock_backoff in
      Printf.bprintf b "   %-26s %6.3f req/1000cyc  %7.2f words/10cyc\n" name
        m.Cm_workload.Metrics.throughput m.Cm_workload.Metrics.bandwidth)
    [
      ("TTS lock, backoff 64",
       Counting_network.Lock_per_balancer, (64, 1024));
      ("TTS lock, backoff 512 (dflt)",
       Counting_network.Lock_per_balancer, (512, 4096));
      ("TTS lock, backoff 2048",
       Counting_network.Lock_per_balancer, (2048, 16384));
      ("atomic fetch-and-toggle",
       Counting_network.Atomic_toggle, (512, 4096));
    ]

(* -- 6. B-tree shared-memory read concurrency ----------------------- *)

let btree_read_mode_ablation b ~ran =
  let run read_mode =
    let node_procs = 24 and requesters = 16 in
    let machine =
      Machine.create ~seed:42 ~n_procs:(node_procs + requesters) ~costs:Costs.software ()
    in
    let env = Sysenv.make machine in
    let tree =
      Btree.create env ~mode:Btree.Shared_memory ~fanout:50 ~sm_read_mode:read_mode
        ~node_procs:(Array.init node_procs (fun i -> i))
        ~keys:(List.init 5000 (fun i -> i * 7))
        ()
    in
    drive ~ran machine
      { Cm_workload.Driver.requesters; first_proc = node_procs; think = 0; warmup = 20_000;
        horizon = 150_000 }
      (fun _ ->
        let* r = Thread.rng in
        Thread.ignore_m (Btree.lookup tree (Rng.int r 50_000)))
  in
  Printf.bprintf b "\n6. SM B-tree read concurrency control (lookup-only):\n";
  List.iter
    (fun (name, mode) ->
      let m = run mode in
      Printf.bprintf b "   %-26s %6.3f ops/1000cyc  %7.2f words/10cyc\n" name
        m.Cm_workload.Metrics.throughput m.Cm_workload.Metrics.bandwidth)
    [ ("reader-writer locks (dflt)", Btree_sm.Locked); ("seqlock (lock-free reads)", Btree_sm.Seqlock) ]

(* -- 7. migration granularity: activation vs whole thread ----------- *)

let granularity_ablation b ~ran =
  let hops = 8 in
  let activation () =
    let machine = fresh_machine ~n:(hops + 1) () in
    let rt = Runtime.create machine in
    let finished = ref 0 in
    run_to_completion ~ran machine
      (let* () =
         Runtime.scope rt ~result_words:2
           (Thread.repeat hops (fun i ->
                Runtime.call rt ~access:Runtime.Migrate ~home:(i + 1) ~args_words:8
                  ~result_words:2 (Thread.compute 50)))
       in
       finished := Machine.now machine;
       Thread.return ());
    (Network.total_words machine.Machine.net, !finished)
  in
  let whole_thread stack_words =
    let machine = fresh_machine ~n:(hops + 1) () in
    let rt = Runtime.create machine in
    let finished = ref 0 in
    run_to_completion ~ran machine
      (let* () =
         Thread.repeat hops (fun i ->
             let* () = Runtime.migrate_thread rt ~dst:(i + 1) ~stack_words in
             Thread.compute 50)
       in
       finished := Machine.now machine;
       Thread.return ());
    (Network.total_words machine.Machine.net, !finished)
  in
  let aw, ac = activation () in
  Printf.bprintf b "\n7. Migration granularity over a %d-hop chain (S2.3):\n" hops;
  Printf.bprintf b "   single activation (8-word frame):  %6d words, %6d cycles\n" aw ac;
  List.iter
    (fun stack ->
      let w, c = whole_thread stack in
      Printf.bprintf b "   whole thread (%4d-word stack):    %6d words, %6d cycles\n" stack w c)
    [ 64; 256; 1024 ]

(* -- 8. partial activation migration -------------------------------- *)

let partial_migration_ablation b ~ran =
  let hops = 6 in
  let full_words = 24 and carried = 8 in
  let residual = full_words - carried in
  (* A chain of hops where the activation's live state is [full_words]
     words but only [carried] are needed on the common path; with
     probability [touch] (per hop) the residual is needed and must be
     fetched from the origin. *)
  let run ~partial ~touch_every =
    let machine = fresh_machine ~n:(hops + 1) () in
    let rt = Runtime.create machine in
    let finished = ref 0 in
    run_to_completion ~ran machine
      (let* () =
         Runtime.scope rt ~result_words:2
           (Thread.repeat hops (fun i ->
                let* () =
                  Runtime.call rt ~access:Runtime.Migrate ~home:(i + 1)
                    ~args_words:(if partial then carried else full_words)
                    ~result_words:2 (Thread.compute 50)
                in
                if partial && touch_every > 0 && i mod touch_every = 0 then
                  Runtime.fetch_residual rt ~origin:0 ~words:residual
                else Thread.return ()))
       in
       finished := Machine.now machine;
       Thread.return ());
    (Network.total_words machine.Machine.net, !finished)
  in
  let fw, fc = run ~partial:false ~touch_every:0 in
  let pw0, pc0 = run ~partial:true ~touch_every:0 in
  let pw2, pc2 = run ~partial:true ~touch_every:2 in
  let pw1, pc1 = run ~partial:true ~touch_every:1 in
  Printf.bprintf b "\n8. Partial activation migration (%d hops, %d live words, %d carried):\n"
    hops full_words carried;
  Printf.bprintf b "   full activation each hop:          %5d words, %6d cycles\n" fw fc;
  Printf.bprintf b "   partial, residual never needed:    %5d words, %6d cycles\n" pw0 pc0;
  Printf.bprintf b "   partial, residual every 2nd hop:   %5d words, %6d cycles\n" pw2 pc2;
  Printf.bprintf b "   partial, residual every hop:       %5d words, %6d cycles\n" pw1 pc1

(* -- 9. network contention model ------------------------------------ *)

let contention_ablation b ~ran =
  let run ~net_contention scheme =
    let machine =
      Machine.create ~seed:42 ~net_contention ~n_procs:(24 + 32)
        ~costs:(Scheme.costs scheme) ()
    in
    let env = Sysenv.make machine in
    let cn = Counting_network.create env (Scheme.counting_mode scheme) in
    drive ~ran machine
      { Cm_workload.Driver.requesters = 32; first_proc = 24; think = 0; warmup = 20_000;
        horizon = 150_000 }
      (fun i -> Thread.ignore_m (Counting_network.traverse cn ~input_wire:(i mod 8)))
  in
  Printf.bprintf b "\n9. Link-contention network model (counting network, 32 requesters):\n";
  List.iter
    (fun scheme ->
      let off = run ~net_contention:false scheme in
      let on = run ~net_contention:true scheme in
      Printf.bprintf b "   %-8s ideal net %6.3f req/1000cyc -> contended %6.3f (%.0f%% kept)\n"
        (Scheme.name scheme) off.Cm_workload.Metrics.throughput
        on.Cm_workload.Metrics.throughput
        (100. *. on.Cm_workload.Metrics.throughput /. off.Cm_workload.Metrics.throughput))
    [ Scheme.Sm; Scheme.Cp { hw = false; repl = false }; Scheme.Rpc { hw = false; repl = false } ]

let sections =
  [
    short_circuit_ablation;
    conditional_ablation;
    replication_ablation;
    hardware_ablation;
    sm_sync_ablation;
    btree_read_mode_ablation;
    granularity_ablation;
    partial_migration_ablation;
    contention_ablation;
  ]

(* One job per section: its text, and the digest of every machine it
   ran, in run order. *)
let section f () =
  let digests = ref [] in
  let text = Report.text (fun b -> f b ~ran:(fun m -> digests := Machine.digest m :: !digests)) in
  (text, List.rev !digests)

let render texts =
  Report.text (fun b ->
      Report.header b "Ablations: the contribution of each design choice";
      List.iter (Buffer.add_string b) texts)

let plan ?quick:_ () = Plan.make ~jobs:(List.map section sections) ~render
