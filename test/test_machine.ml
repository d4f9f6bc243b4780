(* Tests for the simulated multiprocessor: Costs, Topology, Network,
   Processor, Thread, Machine. *)

open Cm_engine
open Cm_machine

(* ------------------------------------------------------------------ *)
(* Costs                                                              *)
(* ------------------------------------------------------------------ *)

(* The calibration payload of the paper's Table 5: 32 bytes = 8 words. *)
let table5_words = 8

let test_costs_table5_rows () =
  let c = Costs.software in
  Alcotest.(check int) "copy packet 76" 76 (Costs.copy_packet c ~words:table5_words);
  Alcotest.(check int) "unmarshal 51" 51 (Costs.unmarshal c ~words:table5_words);
  Alcotest.(check int) "marshal 22" 22 (Costs.marshal c ~words:table5_words);
  Alcotest.(check int) "thread creation 66" 66 c.Costs.thread_creation;
  Alcotest.(check int) "scheduler 36" 36 c.Costs.scheduler;
  Alcotest.(check int) "forwarding check 23" 23 c.Costs.forwarding_check;
  Alcotest.(check int) "transit 17 at 2 hops" 17 (Costs.transit c ~hops:2 ~words:table5_words)

let test_costs_pipelines () =
  let c = Costs.software in
  Alcotest.(check int) "send pipeline = linkage+alloc+marshal+send"
    (44 + 35 + 22 + 23)
    (Costs.send_pipeline c ~words:table5_words);
  let recv = Costs.recv_pipeline c ~words:table5_words ~new_thread:true in
  (* copy + creation + linkage + unmarshal + goid + alloc; the
     forwarding check is charged per annotated call by the runtime *)
  Alcotest.(check int) "recv pipeline (new thread)" (76 + 66 + 66 + 51 + 36 + 16) recv;
  let reply = Costs.recv_pipeline c ~words:table5_words ~new_thread:false in
  Alcotest.(check bool) "reply cheaper than fresh thread" true (reply < recv)

let test_costs_hw_cheaper () =
  let sw = Costs.software and hw = Costs.hardware in
  let words = table5_words in
  Alcotest.(check int) "hw copy 12" 12 (Costs.copy_packet hw ~words);
  Alcotest.(check int) "hw marshal halved" 11 (Costs.marshal hw ~words);
  Alcotest.(check int) "hw unmarshal halved" 26 (Costs.unmarshal hw ~words);
  Alcotest.(check int) "no goid cost" 0 hw.Costs.goid_translation;
  Alcotest.(check int) "no packet alloc" 0 (hw.Costs.alloc_packet_send + hw.Costs.alloc_packet_recv);
  Alcotest.(check bool) "hw recv cheaper" true
    (Costs.recv_pipeline hw ~words ~new_thread:true < Costs.recv_pipeline sw ~words ~new_thread:true)

let test_costs_hw_saves_about_20_percent () =
  (* Paper §4.3: NI registers remove ~20% of one migration's overhead. *)
  let words = table5_words in
  let overhead c =
    Costs.send_pipeline c ~words
    + Costs.recv_pipeline c ~words ~new_thread:true
    + c.Costs.scheduler
  in
  let sw = overhead Costs.software in
  let ni = overhead (Costs.with_ni_registers Costs.software) in
  let saving = float_of_int (sw - ni) /. float_of_int sw in
  Alcotest.(check bool)
    (Printf.sprintf "NI saving %.2f within 15%%..35%%" saving)
    true
    (saving > 0.15 && saving < 0.35)

let test_costs_breakdown_sums () =
  let c = Costs.software in
  let rows = Costs.breakdown c ~words:8 ~hops:2 ~user_code:150 in
  let total = List.assoc "Total time" rows in
  let user = List.assoc "User code" rows in
  let transit = List.assoc "Network transit" rows in
  let overhead = List.assoc "Message overhead total" rows in
  Alcotest.(check int) "total = user+transit+overhead" total (user + transit + overhead);
  let recv = List.assoc "Receiver total" rows in
  let send = List.assoc "Sender total" rows in
  Alcotest.(check int) "overhead = recv+send" overhead (recv + send);
  Alcotest.(check int) "sender rows sum" send (44 + 35 + 23 + 22)

(* ------------------------------------------------------------------ *)
(* Topology                                                           *)
(* ------------------------------------------------------------------ *)

let test_topology_mesh_hops () =
  let t = Topology.mesh 16 in
  (* 4x4 grid, row-major. *)
  Alcotest.(check int) "self" 0 (Topology.hops t ~src:5 ~dst:5);
  Alcotest.(check int) "adjacent" 1 (Topology.hops t ~src:0 ~dst:1);
  Alcotest.(check int) "row end" 3 (Topology.hops t ~src:0 ~dst:3);
  Alcotest.(check int) "diagonal corner" 6 (Topology.hops t ~src:0 ~dst:15);
  Alcotest.(check int) "symmetric" (Topology.hops t ~src:2 ~dst:9) (Topology.hops t ~src:9 ~dst:2)

let test_topology_torus_wraps () =
  let t = Topology.torus 16 in
  Alcotest.(check int) "wrap row" 1 (Topology.hops t ~src:0 ~dst:3);
  Alcotest.(check int) "wrap corner" 2 (Topology.hops t ~src:0 ~dst:15)

let test_topology_crossbar () =
  let t = Topology.crossbar 10 in
  Alcotest.(check int) "any pair 1 hop" 1 (Topology.hops t ~src:0 ~dst:9);
  Alcotest.(check int) "self 0" 0 (Topology.hops t ~src:4 ~dst:4)

let test_topology_bounds () =
  let t = Topology.mesh 4 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Topology.hops: processor 4 out of range [0,4)")
    (fun () -> ignore (Topology.hops t ~src:0 ~dst:4))

let test_topology_nonsquare () =
  (* 24 processors: 5x5 grid with the last row short. *)
  let t = Topology.mesh 24 in
  Alcotest.(check int) "size kept" 24 (Topology.size t);
  Alcotest.(check bool) "mean hops positive" true (Topology.mean_hops t > 0.)

let prop_topology_triangle =
  QCheck.Test.make ~name:"mesh hops satisfy triangle inequality" ~count:200
    QCheck.(triple (int_range 0 24) (int_range 0 24) (int_range 0 24))
    (fun (a, b, c) ->
      let t = Topology.mesh 25 in
      Topology.hops t ~src:a ~dst:c <= Topology.hops t ~src:a ~dst:b + Topology.hops t ~src:b ~dst:c)

(* ------------------------------------------------------------------ *)
(* Network                                                            *)
(* ------------------------------------------------------------------ *)

let make_net ?(n = 16) () =
  let sim = Sim.create () in
  let stats = Stats.create () in
  let costs = Costs.software in
  let topo = Topology.mesh n in
  (sim, stats, Network.create ~sim ~topo ~costs ~stats ())

let test_network_delivers () =
  let sim, _, net = make_net () in
  let arrived = ref (-1) in
  ignore (Network.send net ~src:0 ~dst:3 ~words:8 ~kind:"test" (fun () -> arrived := Sim.now sim));
  Sim.run sim;
  (* 3 hops on the 4x4 mesh; transit = 5 + 3 + (8+2). *)
  Alcotest.(check int) "arrival time" 18 !arrived

let test_network_accounts_words () =
  let sim, stats, net = make_net () in
  ignore (Network.send net ~src:0 ~dst:1 ~words:8 ~kind:"a" ignore);
  ignore (Network.send net ~src:1 ~dst:2 ~words:4 ~kind:"b" ignore);
  Sim.run sim;
  Alcotest.(check int) "total words includes headers" (8 + 2 + 4 + 2) (Network.total_words net);
  Alcotest.(check int) "messages" 2 (Network.total_messages net);
  Alcotest.(check int) "kind a words" 10 (Network.words_of_kind net "a");
  Alcotest.(check int) "kind b messages" 1 (Network.messages_of_kind net "b");
  Alcotest.(check int) "stats mirror" (Network.total_words net) (Stats.get stats "net.words")

let test_network_self_send () =
  let sim, _, net = make_net () in
  let arrived = ref false in
  ignore (Network.send net ~src:2 ~dst:2 ~words:0 ~kind:"loop" (fun () -> arrived := true));
  Sim.run sim;
  Alcotest.(check bool) "loopback delivered" true !arrived

let test_network_bandwidth_metric () =
  let sim, _, net = make_net () in
  ignore (Network.send net ~src:0 ~dst:1 ~words:18 ~kind:"x" ignore);
  Sim.run sim;
  let now = Sim.now sim in
  Alcotest.(check (float 1e-9)) "words*10/now"
    (10. *. 20. /. float_of_int now)
    (Network.bandwidth_per_10_cycles net ~now)


let test_topology_route_matches_hops () =
  let t = Topology.mesh 16 in
  for src = 0 to 15 do
    for dst = 0 to 15 do
      let route = Topology.route t ~src ~dst in
      Alcotest.(check int)
        (Printf.sprintf "route length %d->%d" src dst)
        (Topology.hops t ~src ~dst)
        (List.length route);
      (* The route must be connected: each link starts where the
         previous one ended, from src to dst. *)
      let rec connected cur = function
        | [] -> cur = dst
        | (a, b) :: rest -> a = cur && connected b rest
      in
      Alcotest.(check bool) "route connected" true (connected src route)
    done
  done

let test_topology_route_torus_wraps () =
  let t = Topology.torus 16 in
  (* 0 -> 3 wraps left in one hop on a 4-wide torus. *)
  Alcotest.(check (list (pair int int))) "wrap route" [ (0, 3) ] (Topology.route t ~src:0 ~dst:3)

let test_network_contention_serializes_shared_link () =
  let sim = Sim.create () in
  let stats = Stats.create () in
  let net =
    Network.create ~contention:true ~sim ~topo:(Topology.mesh 4) ~costs:Costs.software ~stats ()
  in
  (* Two large messages over the same 0->1 link: the second queues. *)
  let t1 = ref 0 and t2 = ref 0 in
  ignore (Network.send net ~src:0 ~dst:1 ~words:40 ~kind:"a" (fun () -> t1 := Sim.now sim));
  ignore (Network.send net ~src:0 ~dst:1 ~words:40 ~kind:"b" (fun () -> t2 := Sim.now sim));
  Sim.run sim;
  Alcotest.(check bool)
    (Printf.sprintf "second delayed by occupancy (%d then %d)" !t1 !t2)
    true
    (!t2 >= !t1 + 42);
  Alcotest.(check bool) "queueing recorded" true (Stats.get stats "net.contended_cycles" > 0)

let test_network_contention_disjoint_paths_parallel () =
  let sim = Sim.create () in
  let stats = Stats.create () in
  let net =
    Network.create ~contention:true ~sim ~topo:(Topology.mesh 4) ~costs:Costs.software ~stats ()
  in
  (* 0->1 and 2->3 share no link: both arrive at the uncontended time. *)
  let t1 = ref 0 and t2 = ref 0 in
  ignore (Network.send net ~src:0 ~dst:1 ~words:40 ~kind:"a" (fun () -> t1 := Sim.now sim));
  ignore (Network.send net ~src:2 ~dst:3 ~words:40 ~kind:"b" (fun () -> t2 := Sim.now sim));
  Sim.run sim;
  Alcotest.(check int) "same arrival" !t1 !t2

let test_network_contention_back_to_back_exact () =
  let sim = Sim.create () in
  let stats = Stats.create () in
  let net =
    Network.create ~contention:true ~sim ~topo:(Topology.mesh 4) ~costs:Costs.software ~stats ()
  in
  (* Two messages share the single 0->1 link.  Store-and-forward with
     link_bandwidth 1 word/cycle: each occupies the link for
     wire_words = 40 + 2 header = 42 cycles.  First: starts after
     net_base = 5, frees the link at 47, arrives at 47 + net_per_hop =
     48.  The second queues behind it — link start at 47, free at 89,
     arrival 90 — exactly one occupancy after the first. *)
  let t1 = ref 0 and t2 = ref 0 in
  let l1 = Network.send net ~src:0 ~dst:1 ~words:40 ~kind:"a" (fun () -> t1 := Sim.now sim) in
  let l2 = Network.send net ~src:0 ~dst:1 ~words:40 ~kind:"b" (fun () -> t2 := Sim.now sim) in
  Alcotest.(check int) "first latency" 48 l1;
  Alcotest.(check int) "second latency queues one occupancy" 90 l2;
  Sim.run sim;
  Alcotest.(check int) "first arrival" 48 !t1;
  Alcotest.(check int) "second arrival back-to-back" (48 + 42) !t2;
  (* The counter accumulates each contended message's full assigned
     latency: 48 + 90. *)
  Alcotest.(check int) "contended cycles hand-computed" 138
    (Stats.get stats "net.contended_cycles")

let test_network_contention_multihop_exact () =
  let sim = Sim.create () in
  let stats = Stats.create () in
  let net =
    Network.create ~contention:true ~sim ~topo:(Topology.mesh 16) ~costs:Costs.software ~stats ()
  in
  (* On the 4x4 mesh, 0->2 is two links, (0,1) then (1,2); wire = 10 + 2 = 12 words.
     First message: (0,1) busy [5,17), (1,2) busy [18,30), arrival
     30 + 1 = 31 = net_base + 2*occupancy + 2*net_per_hop.  Second:
     queues on (0,1) [17,29); reaches (1,2) at 30 just as the first
     frees it, busy [30,42), arrival 43. *)
  let l1 = Network.send net ~src:0 ~dst:2 ~words:10 ~kind:"a" ignore in
  let l2 = Network.send net ~src:0 ~dst:2 ~words:10 ~kind:"b" ignore in
  Alcotest.(check int) "first store-and-forward latency" 31 l1;
  Alcotest.(check int) "second pipelines behind first" 43 l2;
  Sim.run sim;
  Alcotest.(check int) "contended cycles hand-computed" (31 + 43)
    (Stats.get stats "net.contended_cycles")

let test_network_contention_off_is_default () =
  let m = Machine.create ~seed:1 ~n_procs:4 ~costs:Costs.software () in
  let t1 = ref 0 and t2 = ref 0 in
  ignore
    (Network.send m.Machine.net ~src:0 ~dst:1 ~words:40 ~kind:"a" (fun () ->
         t1 := Sim.now m.Machine.sim));
  ignore
    (Network.send m.Machine.net ~src:0 ~dst:1 ~words:40 ~kind:"b" (fun () ->
         t2 := Sim.now m.Machine.sim));
  Machine.run m;
  Alcotest.(check int) "no serialization by default" !t1 !t2

(* ------------------------------------------------------------------ *)
(* Processor                                                          *)
(* ------------------------------------------------------------------ *)

let make_proc ?(scheduler_cost = 36) () =
  let sim = Sim.create () in
  let stats = Stats.create () in
  (sim, stats, Processor.create ~sim ~stats ~scheduler_cost ~id:0)

let test_processor_runs_task () =
  let sim, _, p = make_proc () in
  let done_at = ref (-1) in
  Processor.enqueue p (fun () ->
      Processor.hold p 100 (fun () ->
          done_at := Sim.now sim;
          Processor.release p));
  Sim.run sim;
  (* 36 scheduler + 100 work *)
  Alcotest.(check int) "completion time" 136 !done_at;
  Alcotest.(check int) "busy cycles" 136 (Processor.busy_cycles p)

let test_processor_fcfs () =
  let sim, _, p = make_proc ~scheduler_cost:0 () in
  let order = ref [] in
  let task name dur () =
    Processor.hold p dur (fun () ->
        order := (name, Sim.now sim) :: !order;
        Processor.release p)
  in
  Processor.enqueue p (task "a" 10);
  Processor.enqueue p (task "b" 5);
  Processor.enqueue p (task "c" 1);
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "serialized in arrival order"
    [ ("a", 10); ("b", 15); ("c", 16) ]
    (List.rev !order)

let test_processor_contention_queueing () =
  (* Two tasks of 50 cycles each: the second waits for the first — the
     root-bottleneck effect. *)
  let sim, _, p = make_proc ~scheduler_cost:0 () in
  let finish = ref [] in
  for _ = 1 to 2 do
    Processor.enqueue p (fun () ->
        Processor.hold p 50 (fun () ->
            finish := Sim.now sim :: !finish;
            Processor.release p))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "second delayed" [ 50; 100 ] (List.rev !finish)

let test_processor_idle_between_bursts () =
  let sim, _, p = make_proc ~scheduler_cost:0 () in
  Processor.enqueue p (fun () -> Processor.hold p 10 (fun () -> Processor.release p));
  Sim.run sim;
  Alcotest.(check bool) "idle after release" false (Processor.is_busy p);
  (* A task arriving later is dispatched immediately. *)
  Sim.at sim 100 (fun () ->
      Processor.enqueue p (fun () -> Processor.hold p 5 (fun () -> Processor.release p)));
  Sim.run sim;
  Alcotest.(check int) "total busy" 15 (Processor.busy_cycles p);
  Alcotest.(check int) "ends at 105" 105 (Sim.now sim)

let test_processor_utilization () =
  let sim, _, p = make_proc ~scheduler_cost:0 () in
  Processor.enqueue p (fun () -> Processor.hold p 50 (fun () -> Processor.release p));
  Sim.run sim;
  Sim.at sim 100 ignore;
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "50%" 0.5 (Processor.utilization p ~now:(Sim.now sim))

let test_processor_park_pool_growth_and_reuse () =
  let sim, _, p = make_proc ~scheduler_cost:0 () in
  Alcotest.(check int) "initial park capacity" 8 (Processor.park_capacity p);
  let fired = ref [] in
  (* 20 delayed enqueues with distinct deadlines: more than the initial 8
     slots, so the pool must grow mid-flight without disturbing wake
     order. *)
  for i = 0 to 19 do
    Processor.enqueue_after p ~delay:(10 * (i + 1)) (fun () ->
        fired := i :: !fired;
        Processor.release p)
  done;
  Alcotest.(check int) "all parked" 20 (Processor.parked p);
  Alcotest.(check bool) "pool grew" true (Processor.park_capacity p >= 20);
  let grown = Processor.park_capacity p in
  Sim.run sim;
  Alcotest.(check int) "pool drained" 0 (Processor.parked p);
  Alcotest.(check (list int)) "woken in deadline order" (List.init 20 Fun.id) (List.rev !fired);
  (* A second wave exactly filling the grown pool recycles the freed
     slots: no further growth. *)
  for _ = 1 to grown do
    Processor.enqueue_after p ~delay:5 (fun () -> Processor.release p)
  done;
  Alcotest.(check int) "second wave parked" grown (Processor.parked p);
  Alcotest.(check int) "slots reused, capacity unchanged" grown (Processor.park_capacity p);
  Sim.run sim;
  Alcotest.(check int) "drained again" 0 (Processor.parked p)

let test_processor_ring_growth_preserves_fcfs () =
  let sim, _, p = make_proc ~scheduler_cost:0 () in
  Alcotest.(check int) "initial ring capacity" 8 (Processor.ring_capacity p);
  let order = ref [] in
  (* The first task is dispatched but stays in the ring until its
     dispatch event fires, so 20 enqueues force the ring past its
     initial 8 slots while entries are live. *)
  for i = 0 to 19 do
    Processor.enqueue p (fun () ->
        Processor.hold p 10 (fun () ->
            order := i :: !order;
            Processor.release p))
  done;
  Alcotest.(check bool) "ring grew" true (Processor.ring_capacity p >= 20);
  let grown = Processor.ring_capacity p in
  Sim.run sim;
  Alcotest.(check (list int)) "fcfs preserved across growth" (List.init 20 Fun.id)
    (List.rev !order);
  (* Emptied slots are reused: a burst that fits the grown ring does not
     grow it again. *)
  for _ = 1 to grown do
    Processor.enqueue p (fun () -> Processor.release p)
  done;
  Alcotest.(check int) "ring capacity unchanged on reuse" grown (Processor.ring_capacity p);
  Sim.run sim;
  Alcotest.(check int) "queue empty" 0 (Processor.queue_length p)

(* ------------------------------------------------------------------ *)
(* Thread                                                             *)
(* ------------------------------------------------------------------ *)

open Thread.Infix

let machine ?(n = 4) () = Machine.create ~seed:1 ~n_procs:n ~costs:Costs.software ()

let test_thread_compute_sequences () =
  let m = machine () in
  let finished = ref (-1) in
  Machine.spawn m ~on:0
    (let* () = Thread.compute 10 in
     let* () = Thread.compute 20 in
     let+ _tid = Thread.tid in
     finished := Machine.now m);
  Machine.run m;
  (* scheduler 36 + 30 work *)
  Alcotest.(check int) "sequential compute" 66 !finished

let test_thread_yield_interleaves () =
  let m = Machine.create ~seed:1 ~n_procs:1 ~costs:{ Costs.software with Costs.scheduler = 0 } () in
  let log = ref [] in
  let worker name =
    let* () = Thread.compute 5 in
    log := name :: !log;
    let* () = Thread.yield in
    let* () = Thread.compute 5 in
    log := name :: !log;
    Thread.return ()
  in
  Machine.spawn m ~on:0 (worker "a");
  Machine.spawn m ~on:0 (worker "b");
  Machine.run m;
  Alcotest.(check (list string)) "yield alternates" [ "a"; "b"; "a"; "b" ] (List.rev !log)

let test_thread_sleep_releases_cpu () =
  let m = Machine.create ~seed:1 ~n_procs:1 ~costs:{ Costs.software with Costs.scheduler = 0 } () in
  let log = ref [] in
  Machine.spawn m ~on:0
    (let* () = Thread.sleep 100 in
     log := ("sleeper", Machine.now m) :: !log;
     Thread.return ());
  Machine.spawn m ~on:0
    (let* () = Thread.compute 10 in
     log := ("worker", Machine.now m) :: !log;
     Thread.return ());
  Machine.run m;
  Alcotest.(check (list (pair string int)))
    "worker ran during sleep"
    [ ("worker", 10); ("sleeper", 100) ]
    (List.rev !log)

let test_thread_await_resume () =
  let m = machine () in
  let resumer = ref None in
  let got = ref 0 in
  Machine.spawn m ~on:0
    (let* v = Thread.await (fun ~resume -> resumer := Some resume) in
     got := v;
     Thread.return ());
  (* Fire the resumption from a detached event later. *)
  Machine.run m;
  (match !resumer with
  | Some resume ->
    Sim.at m.Machine.sim 500 (fun () -> resume 42);
    Machine.run m
  | None -> Alcotest.fail "thread never blocked");
  Alcotest.(check int) "resumed with value" 42 !got

let test_thread_sleep_pool_reuse_after_exit () =
  (* Two generations of sleeping threads on one processor: the first
     wave's 50 concurrent sleepers grow the park pool; after they exit,
     the second wave must fit in the recycled slots. *)
  let m = Machine.create ~seed:1 ~n_procs:1 ~costs:Costs.software () in
  let p = Machine.proc m 0 in
  let exited = ref 0 in
  let wave () =
    (* Each spawn dispatch costs ~36 cycles, so all 50 threads reach
       their 10k-cycle sleep long before the first one wakes: the whole
       wave is parked at once. *)
    for _ = 1 to 50 do
      Machine.spawn m ~on:0 ~on_exit:(fun () -> incr exited) (Thread.sleep 10_000)
    done;
    Machine.run m
  in
  wave ();
  Alcotest.(check int) "first wave exited" 50 !exited;
  Alcotest.(check int) "nothing left parked" 0 (Processor.parked p);
  let grown = Processor.park_capacity p in
  Alcotest.(check bool) "pool grew to hold concurrent sleepers" true (grown >= 50);
  wave ();
  Alcotest.(check int) "second wave exited" 100 !exited;
  Alcotest.(check int) "slots reused after exit, capacity unchanged" grown
    (Processor.park_capacity p)

let test_thread_frame_double_resume_checked () =
  (* With the sanitizer armed, a frame resumption carries a one-shot
     token: a double resume must be caught at the faulting call. *)
  Check.set_enabled true;
  Check.reset ();
  Fun.protect
    ~finally:(fun () ->
      Check.set_enabled false;
      Check.reset ())
    (fun () ->
      let m = Machine.create ~seed:1 ~n_procs:1 ~costs:Costs.software () in
      let saved = ref None in
      let got = ref 0 in
      Machine.spawn m ~on:0
        (let* v = Thread.await (fun ~resume -> saved := Some resume) in
         got := v;
         Thread.return ());
      Machine.run m;
      match !saved with
      | None -> Alcotest.fail "thread never blocked"
      | Some resume ->
        Sim.after m.Machine.sim 10 (fun () -> resume 7);
        Machine.run m;
        Alcotest.(check int) "first resume delivered" 7 !got;
        (match resume 8 with
        | () -> Alcotest.fail "second resume not caught"
        | exception Check.Violation _ -> ()))

let test_thread_travel_moves () =
  let m = machine () in
  let where = ref (-1) in
  Machine.spawn m ~on:0
    (let* p = Thread.proc in
     Alcotest.(check int) "starts on 0" 0 (Processor.id p);
     let* () =
       Thread.travel ~net:m.Machine.net ~dst:(Machine.proc m 3) ~words:8 ~kind:"migrate"
         ~recv_work:50
     in
     let+ p' = Thread.proc in
     where := Processor.id p');
  Machine.run m;
  Alcotest.(check int) "ends on 3" 3 !where;
  Alcotest.(check int) "one message" 1 (Network.messages_of_kind m.Machine.net "migrate")

let test_thread_travel_charges_receiver () =
  let m = machine () in
  let arrived_at = ref (-1) in
  Machine.spawn m ~on:0
    (let* () =
       Thread.travel ~net:m.Machine.net ~dst:(Machine.proc m 1) ~words:8 ~kind:"m" ~recv_work:100
     in
     arrived_at := Machine.now m;
     Thread.return ());
  Machine.run m;
  (* dispatch 36 + transit (5+1+10=16) + dispatch 36 + recv 100 = 188 *)
  Alcotest.(check int) "arrival after receive pipeline" 188 !arrived_at

let test_thread_travel_keeps_source_free () =
  let m = Machine.create ~seed:1 ~n_procs:2 ~costs:{ Costs.software with Costs.scheduler = 0 } () in
  let log = ref [] in
  Machine.spawn m ~on:0
    (let* () =
       Thread.travel ~net:m.Machine.net ~dst:(Machine.proc m 1) ~words:4 ~kind:"m" ~recv_work:1000
     in
     log := ("traveller", Machine.now m) :: !log;
     Thread.return ());
  Machine.spawn m ~on:0
    (let* () = Thread.compute 10 in
     log := ("local", Machine.now m) :: !log;
     Thread.return ());
  Machine.run m;
  (match List.rev !log with
  | [ ("local", t_local); ("traveller", t_travel) ] ->
    Alcotest.(check bool) "local ran immediately" true (t_local <= 20);
    Alcotest.(check bool) "traveller later" true (t_travel > t_local)
  | other ->
    Alcotest.failf "unexpected log: %s"
      (String.concat "," (List.map (fun (s, t) -> Printf.sprintf "%s@%d" s t) other)))

let test_thread_combinators () =
  let m = machine () in
  let sum = ref 0 in
  Machine.spawn m ~on:0
    (let* () = Thread.repeat 5 (fun i ->
         let+ () = Thread.compute 1 in
         sum := !sum + i)
     in
     let* () = Thread.iter_list (fun x ->
         let+ () = Thread.compute 1 in
         sum := !sum + x)
       [ 100; 200 ]
     in
     let counter = ref 0 in
     Thread.while_
       (fun () -> !counter < 3)
       (let+ () = Thread.compute 1 in
        incr counter;
        sum := !sum + 1000))
  ;
  Machine.run m;
  Alcotest.(check int) "all combinators ran" (0 + 1 + 2 + 3 + 4 + 300 + 3000) !sum

let test_thread_tids_unique () =
  let m = machine () in
  let tids = ref [] in
  for i = 0 to 3 do
    Machine.spawn m ~on:i
      (let+ tid = Thread.tid in
       tids := tid :: !tids)
  done;
  Machine.run m;
  let sorted = List.sort compare !tids in
  Alcotest.(check (list int)) "tids 0..3" [ 0; 1; 2; 3 ] sorted


let test_thread_stall_blocks_others () =
  (* stall keeps the CPU: a second task must not run until resume. *)
  let m = Machine.create ~seed:1 ~n_procs:1 ~costs:{ Costs.software with Costs.scheduler = 0 } () in
  let order = ref [] in
  let resume_cell = ref None in
  Machine.spawn m ~on:0
    (let* v = Thread.stall (fun ~resume -> resume_cell := Some resume) in
     order := ("stalled-done", v) :: !order;
     Thread.return ());
  Machine.spawn m ~on:0
    (let* () = Thread.compute 1 in
     order := ("other", 0) :: !order;
     Thread.return ());
  (* Resume the stalled thread 500 cycles in. *)
  Sim.at m.Machine.sim 500 (fun () -> match !resume_cell with Some r -> r 9 | None -> ());
  Machine.run m;
  Alcotest.(check (list (pair string int)))
    "stalled thread finished first, holding the CPU"
    [ ("stalled-done", 9); ("other", 0) ]
    (List.rev !order);
  (* The stall's 500 cycles count as busy. *)
  Alcotest.(check bool) "stall charged" true (Processor.busy_cycles (Machine.proc m 0) >= 500)

let test_processor_charge_negative_rejected () =
  let sim = Sim.create () in
  let p = Processor.create ~sim ~stats:(Stats.create ()) ~scheduler_cost:0 ~id:0 in
  Processor.enqueue p (fun () ->
      Alcotest.check_raises "negative charge"
        (Invalid_argument "Processor.charge: negative duration") (fun () ->
          Processor.charge p (-1));
      Processor.release p);
  Sim.run sim

let test_costs_breakdown_hardware () =
  let rows = Costs.breakdown Costs.hardware ~words:8 ~hops:2 ~user_code:150 in
  let total = List.assoc "Total time" rows in
  let sw_total = List.assoc "Total time" (Costs.breakdown Costs.software ~words:8 ~hops:2 ~user_code:150) in
  Alcotest.(check bool) "hardware migration cheaper end to end" true (total < sw_total);
  Alcotest.(check int) "goid row zero" 0 (List.assoc "Object ID translation" rows);
  Alcotest.(check int) "alloc rows zero" 0
    (List.assoc "Allocate packet (recv)" rows + List.assoc "Allocate packet (send)" rows)

let test_machine_spawn_on_exit () =
  let m = machine () in
  let exits = ref 0 in
  Machine.spawn m ~on:0 ~on_exit:(fun () -> incr exits) (Thread.compute 5);
  Machine.spawn m ~on:1 ~on_exit:(fun () -> incr exits) (Thread.compute 5);
  Machine.run m;
  Alcotest.(check int) "both exited" 2 !exits

let test_machine_determinism () =
  let run () =
    let m = machine ~n:8 () in
    let trace = ref [] in
    for i = 0 to 7 do
      Machine.spawn m ~on:i
        (let* r = Thread.rng in
         let d = 1 + Cm_engine.Rng.int r 100 in
         let* () = Thread.compute d in
         trace := (i, Machine.now m) :: !trace;
         Thread.return ())
    done;
    Machine.run m;
    !trace
  in
  Alcotest.(check (list (pair int int))) "identical reruns" (run ()) (run ())

let test_machine_proc_bounds () =
  let m = machine () in
  Alcotest.check_raises "out of range" (Invalid_argument "Machine.proc: 4 out of range [0,4)")
    (fun () -> ignore (Machine.proc m 4))

(* ------------------------------------------------------------------ *)
(* Context recycling                                                  *)
(* ------------------------------------------------------------------ *)

(* Lift a side effect into a thread, between two suspensions. *)
let lift f : unit Thread.t = fun _ k -> f (); k ()

let test_recycled_tids_and_streams () =
  (* A parent spawns 50 children one at a time, each exiting before the
     next is spawned: every child after the first runs in a recycled
     context, yet gets a fresh tid and exactly the stream a fresh
     context would have had — the machine stream's next split. *)
  let m = Machine.create ~seed:5 ~n_procs:2 ~costs:Costs.software () in
  let mirror = Rng.create ~seed:5 in
  let seen = ref [] in
  let child =
    let* tid = Thread.tid in
    let* r = Thread.rng in
    let draws = List.init 4 (fun _ -> Rng.int r 1_000_000) in
    seen := (tid, draws) :: !seen;
    Thread.compute 10
  in
  Machine.spawn m ~on:0
    (Thread.repeat 50 (fun i ->
         let* () = lift (fun () -> Machine.spawn m ~on:(i mod 2) child) in
         Thread.sleep 1_000));
  Machine.run m;
  let _parent = Rng.split mirror in
  let expected =
    List.init 50 (fun i ->
        let r = Rng.split mirror in
        (i + 1, List.init 4 (fun _ -> Rng.int r 1_000_000)))
  in
  Alcotest.(check (list (pair int (list int)))) "fresh tids, split streams" expected
    (List.rev !seen);
  Alcotest.(check int) "parent + one child context" 2 (Thread.contexts_created m.Machine.eng);
  Alcotest.(check int) "both pooled once drained" 2 (Thread.contexts_pooled m.Machine.eng)

let test_recycled_on_exit () =
  (* The second thread runs in the first one's context: its exit must
     run its own callback, and the first callback must not run again. *)
  let m = machine () in
  let log = ref [] in
  Machine.spawn m ~on:0 ~on_exit:(fun () -> log := "a" :: !log) (Thread.compute 5);
  Machine.run m;
  Machine.spawn m ~on:1 ~on_exit:(fun () -> log := "b" :: !log) (Thread.compute 5);
  Machine.run m;
  Machine.spawn m ~on:2 (Thread.compute 5);
  Machine.run m;
  Alcotest.(check (list string)) "each exit its own callback" [ "a"; "b" ] (List.rev !log);
  Alcotest.(check int) "one context for three threads" 1 (Thread.contexts_created m.Machine.eng)

let contexts_after_two_sequential_threads m =
  Machine.spawn m ~on:0 (Thread.compute 5);
  Machine.run m;
  Machine.spawn m ~on:0 (Thread.compute 5);
  Machine.run m;
  Thread.contexts_created m.Machine.eng

let test_recycled_after_faults () =
  (* Stale deliveries are caught by suspension generations, so contexts
     are recycled while faults are armed and after they are cleared. *)
  let m = machine () in
  let tp = Machine.transport m in
  Transport.configure_faults tp ~seed:1 [ ("x", { Transport.no_fault with drop = 0.5 }) ];
  Alcotest.(check int) "context reused while armed" 1 (contexts_after_two_sequential_threads m);
  Transport.clear_faults tp;
  Alcotest.(check int) "and after clearing" 1 (contexts_after_two_sequential_threads m);
  Alcotest.(check int) "pooled once drained" 1 (Thread.contexts_pooled m.Machine.eng)

let test_recycled_under_check () =
  Check.set_enabled true;
  Check.reset ();
  Fun.protect
    ~finally:(fun () ->
      Check.set_enabled false;
      Check.reset ())
    (fun () ->
      Alcotest.(check int) "context reused" 1 (contexts_after_two_sequential_threads (machine ()));
      Alcotest.(check int) "no outstanding continuations" 0 (Check.Linear.outstanding ()))

(* A duplicated RPC request runs the server body twice on the server's
   processor, so a second reply reaches the caller's processor well
   after the first.  By then the caller has exited and its context runs
   a new thread (spawned just after the exit) that is blocked in an
   await of its own.  The stale reply must not touch it: discarded with
   the sanitizers off, a violation with them on. *)
let stale_reply_run () =
  let m = machine () in
  let tp = Machine.transport m in
  let req = Transport.kind tp "req" in
  Transport.Endpoint.register_all tp ~kind:req (fun server -> server);
  let reply = Transport.kind tp "reply" in
  Transport.configure_faults tp ~seed:3 [ ("req", { Transport.no_fault with duplicate = 1.0 }) ];
  let got = ref [] in
  let second =
    let* v = Thread.await (fun ~resume -> Sim.after m.Machine.sim 100_000 (fun () -> resume 42)) in
    got := v :: !got;
    Thread.return ()
  in
  Machine.spawn m ~on:0
    ~on_exit:(fun () -> Sim.after m.Machine.sim 1 (fun () -> Machine.spawn m ~on:0 second))
    (let* v =
       Transport.call tp ~req ~reply ~dst:1 ~args_words:4 ~result_words:2
         (let* () = Thread.compute 5_000 in
          Thread.return 7)
     in
     got := v :: !got;
     Thread.return ());
  (m, tp, got)

let test_stale_reply_discarded () =
  let m, tp, got = stale_reply_run () in
  Machine.run m;
  Alcotest.(check int) "both replies delivered" 2 (Transport.delivered tp "reply");
  Alcotest.(check (list int)) "caller resumed once, new thread by its own event" [ 42; 7 ] !got;
  Alcotest.(check int) "the new thread ran in the caller's context" 3
    (Thread.contexts_created m.Machine.eng)

let test_stale_reply_checked () =
  Check.set_enabled true;
  Check.reset ();
  Fun.protect
    ~finally:(fun () ->
      Check.set_enabled false;
      Check.reset ())
    (fun () ->
      let m, _, got = stale_reply_run () in
      (match Machine.run m with
      | () -> Alcotest.fail "second reply not caught"
      | exception Check.Violation msg ->
        Alcotest.(check bool) "names the await" true
          (String.ends_with ~suffix:"Thread.await resume" msg));
      Alcotest.(check (list int)) "caller resumed once" [ 7 ] !got)

(* ------------------------------------------------------------------ *)
(* Sanitizers and armed faults are digest-neutral                     *)
(* ------------------------------------------------------------------ *)

(* Observing a run must not change it: random mixes of every suspension
   shape — compute, yield, sleep, await on an external event, travel,
   spawns, RPCs — across several threads and processors must produce
   equal machine digests (final clock, events fired, every statistic)
   when run plain, under the sanitizers, and with zero-probability
   faults armed on every transport kind (which routes every send
   through the fault path).  Spawned children and RPC server threads
   exit, so later spawns run in recycled contexts in all three runs. *)

type oracle_op =
  | O_compute of int
  | O_yield
  | O_sleep of int
  | O_travel of int
  | O_await of int
  | O_spawn of int * int  (* on, work *)
  | O_rpc of int * int  (* dst, work *)

let oracle_op_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> O_compute n) (int_range 1 50);
        return O_yield;
        map (fun n -> O_sleep n) (int_range 1 100);
        map (fun d -> O_travel d) (int_range 0 3);
        map (fun d -> O_await d) (int_range 1 80);
        map2 (fun on n -> O_spawn (on, n)) (int_range 0 3) (int_range 1 60);
        map2 (fun d n -> O_rpc (d, n)) (int_range 0 3) (int_range 0 100);
      ])

let oracle_op_print = function
  | O_compute n -> Printf.sprintf "compute %d" n
  | O_yield -> "yield"
  | O_sleep n -> Printf.sprintf "sleep %d" n
  | O_travel d -> Printf.sprintf "travel %d" d
  | O_await d -> Printf.sprintf "await %d" d
  | O_spawn (on, n) -> Printf.sprintf "spawn on %d work %d" on n
  | O_rpc (d, n) -> Printf.sprintf "rpc %d work %d" d n

let oracle_script_gen =
  QCheck.Gen.(list_size (int_range 1 5) (pair (int_range 0 3) (list_size (int_range 0 8) oracle_op_gen)))

let oracle_script_print script =
  String.concat "; "
    (List.map
       (fun (on, ops) ->
         Printf.sprintf "on %d: [%s]" on (String.concat ", " (List.map oracle_op_print ops)))
       script)

type oracle_mode = Plain | Checked | Zero_faults

let oracle_digest mode script =
  let m = Machine.create ~seed:11 ~n_procs:4 ~costs:Costs.software () in
  let tp = Machine.transport m in
  let req = Transport.kind tp "oracle_rpc" in
  Transport.Endpoint.register_all tp ~kind:req (fun server -> server);
  let reply = Transport.kind tp "oracle_reply" in
  if mode = Zero_faults then
    Transport.configure_faults tp ~seed:5
      [ ("oracle_rpc", Transport.no_fault); ("oracle_reply", Transport.no_fault) ];
  let child n =
    let* r = Thread.rng in
    let* () = Thread.compute (n + Rng.int r 10) in
    let* () = Thread.yield in
    Thread.sleep n
  in
  let rec body ops =
    match ops with
    | [] -> Thread.return ()
    | op :: rest ->
      let* () =
        match op with
        | O_compute n -> Thread.compute n
        | O_yield -> Thread.yield
        | O_sleep n -> Thread.sleep n
        | O_travel d ->
          Thread.travel ~net:m.Machine.net ~dst:(Machine.proc m d) ~words:8 ~kind:"migrate"
            ~recv_work:20
        | O_await d ->
          Thread.await (fun ~resume -> Sim.after m.Machine.sim d (fun () -> resume ()))
        | O_spawn (on, n) -> lift (fun () -> Machine.spawn m ~on (child n))
        | O_rpc (d, n) ->
          Thread.ignore_m
            (Transport.call tp ~req ~reply ~dst:d ~args_words:4 ~result_words:2
               (let* () = Thread.compute n in
                Thread.return n))
      in
      body rest
  in
  let run () =
    List.iter (fun (on, ops) -> Machine.spawn m ~on (body ops)) script;
    Machine.run m;
    Machine.digest m
  in
  if mode <> Checked then run ()
  else begin
    Check.set_enabled true;
    Check.reset ();
    Fun.protect
      ~finally:(fun () ->
        Check.set_enabled false;
        Check.reset ())
      (fun () ->
        let d = run () in
        if Check.Linear.outstanding () <> 0 then failwith "outstanding continuations";
        d)
  end

let prop_observers_digest_neutral =
  QCheck.Test.make ~name:"sanitizers and zero-probability faults are digest-neutral" ~count:150
    (QCheck.make ~print:oracle_script_print oracle_script_gen)
    (fun script ->
      let plain = oracle_digest Plain script in
      plain = oracle_digest Checked script && plain = oracle_digest Zero_faults script)

(* ------------------------------------------------------------------ *)

let qsuite props = List.map QCheck_alcotest.to_alcotest props

let () =
  Alcotest.run "cm_machine"
    [
      ( "costs",
        [
          Alcotest.test_case "table5 rows" `Quick test_costs_table5_rows;
          Alcotest.test_case "pipelines" `Quick test_costs_pipelines;
          Alcotest.test_case "hardware cheaper" `Quick test_costs_hw_cheaper;
          Alcotest.test_case "NI saves ~20%" `Quick test_costs_hw_saves_about_20_percent;
          Alcotest.test_case "breakdown sums" `Quick test_costs_breakdown_sums;
        ] );
      ( "topology",
        [
          Alcotest.test_case "mesh hops" `Quick test_topology_mesh_hops;
          Alcotest.test_case "torus wraps" `Quick test_topology_torus_wraps;
          Alcotest.test_case "crossbar" `Quick test_topology_crossbar;
          Alcotest.test_case "bounds" `Quick test_topology_bounds;
          Alcotest.test_case "non-square" `Quick test_topology_nonsquare;
        ]
        @ qsuite [ prop_topology_triangle ] );
      ( "network",
        [
          Alcotest.test_case "delivers" `Quick test_network_delivers;
          Alcotest.test_case "accounts words" `Quick test_network_accounts_words;
          Alcotest.test_case "self send" `Quick test_network_self_send;
          Alcotest.test_case "bandwidth metric" `Quick test_network_bandwidth_metric;
          Alcotest.test_case "route matches hops" `Quick test_topology_route_matches_hops;
          Alcotest.test_case "route torus wraps" `Quick test_topology_route_torus_wraps;
          Alcotest.test_case "contention serializes" `Quick
            test_network_contention_serializes_shared_link;
          Alcotest.test_case "contention disjoint parallel" `Quick
            test_network_contention_disjoint_paths_parallel;
          Alcotest.test_case "contention back-to-back exact" `Quick
            test_network_contention_back_to_back_exact;
          Alcotest.test_case "contention multihop exact" `Quick
            test_network_contention_multihop_exact;
          Alcotest.test_case "contention off by default" `Quick
            test_network_contention_off_is_default;
        ] );
      ( "processor",
        [
          Alcotest.test_case "runs task" `Quick test_processor_runs_task;
          Alcotest.test_case "fcfs" `Quick test_processor_fcfs;
          Alcotest.test_case "contention queueing" `Quick test_processor_contention_queueing;
          Alcotest.test_case "idle between bursts" `Quick test_processor_idle_between_bursts;
          Alcotest.test_case "utilization" `Quick test_processor_utilization;
          Alcotest.test_case "park pool growth and reuse" `Quick
            test_processor_park_pool_growth_and_reuse;
          Alcotest.test_case "ring growth preserves fcfs" `Quick
            test_processor_ring_growth_preserves_fcfs;
        ] );
      ( "thread",
        [
          Alcotest.test_case "compute sequences" `Quick test_thread_compute_sequences;
          Alcotest.test_case "yield interleaves" `Quick test_thread_yield_interleaves;
          Alcotest.test_case "sleep releases cpu" `Quick test_thread_sleep_releases_cpu;
          Alcotest.test_case "await resume" `Quick test_thread_await_resume;
          Alcotest.test_case "sleep pool reuse after exit" `Quick
            test_thread_sleep_pool_reuse_after_exit;
          Alcotest.test_case "frame double resume checked" `Quick
            test_thread_frame_double_resume_checked;
          Alcotest.test_case "travel moves" `Quick test_thread_travel_moves;
          Alcotest.test_case "travel charges receiver" `Quick test_thread_travel_charges_receiver;
          Alcotest.test_case "travel keeps source free" `Quick test_thread_travel_keeps_source_free;
          Alcotest.test_case "combinators" `Quick test_thread_combinators;
          Alcotest.test_case "tids unique" `Quick test_thread_tids_unique;
          Alcotest.test_case "stall blocks others" `Quick test_thread_stall_blocks_others;
          Alcotest.test_case "charge negative rejected" `Quick
            test_processor_charge_negative_rejected;
          Alcotest.test_case "hardware breakdown" `Quick test_costs_breakdown_hardware;
        ] );
      ( "machine",
        [
          Alcotest.test_case "spawn on_exit" `Quick test_machine_spawn_on_exit;
          Alcotest.test_case "determinism" `Quick test_machine_determinism;
          Alcotest.test_case "proc bounds" `Quick test_machine_proc_bounds;
          Alcotest.test_case "recycled tids and streams" `Quick test_recycled_tids_and_streams;
          Alcotest.test_case "recycled on_exit" `Quick test_recycled_on_exit;
          Alcotest.test_case "recycled after faults" `Quick test_recycled_after_faults;
          Alcotest.test_case "recycled under check" `Quick test_recycled_under_check;
          Alcotest.test_case "stale reply discarded" `Quick test_stale_reply_discarded;
          Alcotest.test_case "stale reply checked" `Quick test_stale_reply_checked;
        ]
        @ qsuite [ prop_observers_digest_neutral ] );
    ]
