(* Tests for the unified message transport.

   The central property is digest-equivalence: a Transport round trip
   must charge exactly the cycles, schedule exactly the events, and
   touch exactly the statistics of the hand-rolled
   send-pipeline/Network/spawn/recv-pipeline code it replaced.  The old
   code is kept here, verbatim, as the oracle (tests are outside the
   raw-send lint's scope, so the raw Network calls below are legal).

   The second half covers fault injection: seed-determinism, drop /
   duplicate semantics, delivery accounting, and the
   [check_all_delivered] sanitizer. *)

open Cm_engine
open Cm_machine
open Thread.Infix

let costs = Costs.software

let machine () = Machine.create ~seed:11 ~n_procs:8 ~costs ()

(* ------------------------------------------------------------------ *)
(* Oracle: the hand-rolled pipelines the transport replaced            *)
(* ------------------------------------------------------------------ *)

(* Verbatim shape of the pre-transport Runtime.rpc_call (without the
   runtime's own counters). *)
let oracle_rpc m ~dst ~args_words ~result_words body =
  let c = m.Machine.costs and net = m.Machine.net in
  let rpc_k = Network.kind net "rpc" and reply_k = Network.kind net "rpc_reply" in
  let* caller = Thread.proc in
  let caller_id = Processor.id caller in
  let* () = Thread.compute (Costs.send_pipeline c ~words:args_words) in
  let* r =
    Thread.await (fun ~resume ->
        let (_ : int) =
          Network.send_k net ~src:caller_id ~dst ~words:args_words ~kind:rpc_k (fun () ->
              Machine.spawn m ~on:dst
                (let* () =
                   Thread.compute (Costs.recv_pipeline c ~words:args_words ~new_thread:true)
                 in
                 let* r = body in
                 let* here = Thread.proc in
                 let* () = Thread.compute (Costs.send_pipeline c ~words:result_words) in
                 fun _ctx k ->
                   let (_ : int) =
                     Network.send_k net ~src:(Processor.id here) ~dst:caller_id
                       ~words:result_words ~kind:reply_k (fun () -> resume r)
                   in
                   k ()))
        in
        ())
  in
  let* () = Thread.compute (Costs.recv_pipeline c ~words:result_words ~new_thread:false) in
  Thread.return r

(* Verbatim shape of the pre-transport Runtime.migrate_call. *)
let oracle_hop m ~dst ~words =
  let c = m.Machine.costs in
  let* () = Thread.compute (Costs.send_pipeline c ~words) in
  Thread.travel_k ~net:m.Machine.net ~dst:(Machine.proc m dst) ~words
    ~kind:(Network.kind m.Machine.net "migrate")
    ~recv_work:(Costs.recv_pipeline c ~words ~new_thread:true)

(* Verbatim shape of the pre-transport one-way push (Replicate.push_to /
   Btree_msg.register_remote). *)
let oracle_post m ~dst ~words ~work : unit Thread.t =
  let c = m.Machine.costs in
  let* () = Thread.compute (Costs.send_pipeline c ~words) in
  fun _ctx k ->
    let (_ : int) =
      Network.send_k m.Machine.net ~src:0 ~dst ~words
        ~kind:(Network.kind m.Machine.net "oneway")
        (fun () ->
          Machine.spawn m ~on:dst
            (let* () = Thread.compute (Costs.recv_pipeline c ~words ~new_thread:true) in
             Thread.compute work))
    in
    k ()

(* ------------------------------------------------------------------ *)
(* Digest-equivalence property                                        *)
(* ------------------------------------------------------------------ *)

type op =
  | Rpc of int * int * int * int  (* dst, args_words, result_words, work *)
  | Hop of int * int * int  (* dst, words, work *)
  | Post of int * int * int  (* dst, words, work *)

let run_oracle ops =
  let m = machine () in
  Machine.spawn m ~on:0
    (Thread.iter_list
       (function
         | Rpc (dst, args_words, result_words, work) ->
           Thread.ignore_m
             (oracle_rpc m ~dst ~args_words ~result_words
                (let* () = Thread.compute work in
                 Thread.return work))
         | Hop (dst, words, work) ->
           (* hop out, work, hop back home so the next op matches *)
           let* () = oracle_hop m ~dst ~words in
           let* () = Thread.compute work in
           oracle_hop m ~dst:0 ~words
         | Post (dst, words, work) -> oracle_post m ~dst ~words ~work)
       ops);
  Machine.run m;
  Machine.digest m

let run_transport ops =
  let m = machine () in
  let tp = Machine.transport m in
  let rpc_k = Transport.kind tp "rpc" in
  Transport.Endpoint.register_all tp ~kind:rpc_k (fun server -> server);
  let reply_k = Transport.kind tp "rpc_reply" in
  let migrate_k = Transport.kind tp "migrate" in
  let oneway_k = Transport.kind tp "oneway" in
  Transport.Endpoint.register_all tp ~kind:oneway_k (fun work -> Thread.compute work);
  Machine.spawn m ~on:0
    (Thread.iter_list
       (function
         | Rpc (dst, args_words, result_words, work) ->
           Thread.ignore_m
             (Transport.call tp ~req:rpc_k ~reply:reply_k ~dst ~args_words ~result_words
                (let* () = Thread.compute work in
                 Thread.return work))
         | Hop (dst, words, work) ->
           let* () =
             Transport.migrate tp migrate_k ~dst:(Machine.proc m dst) ~words ~fresh:true
           in
           let* () = Thread.compute work in
           Transport.migrate tp migrate_k ~dst:(Machine.proc m 0) ~words ~fresh:true
         | Post (dst, words, work) -> Transport.post tp oneway_k ~dst ~words work)
       ops);
  Machine.run m;
  let digest = Machine.digest m in
  Alcotest.(check int) "transport run fully drained" 0 (Transport.inflight_total tp);
  Transport.check_all_delivered tp;
  digest

let op_gen =
  QCheck.Gen.(
    let dst = int_range 1 7 in
    oneof
      [
        map (fun (d, a, r, w) -> Rpc (d, a, r, w))
          (quad dst (int_range 0 64) (int_range 1 32) (int_range 0 400));
        map (fun (d, words, w) -> Hop (d, words, w))
          (triple dst (int_range 0 64) (int_range 0 400));
        map (fun (d, words, w) -> Post (d, words, w))
          (triple dst (int_range 0 64) (int_range 0 400));
      ])

let op_print = function
  | Rpc (d, a, r, w) -> Printf.sprintf "Rpc(dst=%d,args=%d,result=%d,work=%d)" d a r w
  | Hop (d, words, w) -> Printf.sprintf "Hop(dst=%d,words=%d,work=%d)" d words w
  | Post (d, words, w) -> Printf.sprintf "Post(dst=%d,words=%d,work=%d)" d words w

let prop_digest_equivalence =
  QCheck.Test.make
    ~name:"transport round trips charge cycles identical to the hand-rolled pipeline"
    ~count:40
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map op_print ops))
       QCheck.Gen.(list_size (int_range 1 6) op_gen))
    (fun ops -> String.equal (run_oracle ops) (run_transport ops))

(* ------------------------------------------------------------------ *)
(* Fault injection                                                    *)
(* ------------------------------------------------------------------ *)

let flaky_spec =
  { Transport.drop = 0.3; duplicate = 0.2; delay = 0.15; delay_cycles = 200 }

(* Post [n] messages round-robin under the given fault config; returns
   the machine digest and the accounting for the kind. *)
let run_flaky ~seed ~spec ~n () =
  let m = machine () in
  let tp = Machine.transport m in
  let k = Transport.kind tp "flaky" in
  let handled = ref 0 in
  Transport.Endpoint.register_all tp ~kind:k (fun () ->
      incr handled;
      Thread.compute 50);
  Transport.configure_faults tp ~seed [ ("flaky", spec) ];
  Machine.spawn m ~on:0
    (Thread.repeat n (fun i ->
         let* () = Transport.post tp k ~dst:(1 + (i mod 7)) ~words:16 () in
         Thread.sleep 100));
  Machine.run m;
  ( Machine.digest m,
    Transport.posted tp "flaky",
    Transport.delivered tp "flaky",
    Transport.dropped tp "flaky",
    !handled,
    tp )

let test_fault_determinism () =
  let d1, p1, del1, drop1, h1, _ = run_flaky ~seed:7 ~spec:flaky_spec ~n:60 () in
  let d2, p2, del2, drop2, h2, _ = run_flaky ~seed:7 ~spec:flaky_spec ~n:60 () in
  Alcotest.(check string) "same seed, same digest" d1 d2;
  Alcotest.(check int) "same posted" p1 p2;
  Alcotest.(check int) "same delivered" del1 del2;
  Alcotest.(check int) "same drops" drop1 drop2;
  Alcotest.(check int) "same handler runs" h1 h2;
  Alcotest.(check int) "all 60 posted" 60 p1;
  Alcotest.(check bool) "some drops happened" true (drop1 > 0);
  Alcotest.(check bool) "some deliveries happened" true (del1 > 0)

let test_faults_off_is_baseline () =
  (* No fault config: the digest matches a run with the no-op config —
     arming the machinery with zero probabilities draws no randomness
     and schedules nothing extra. *)
  let d_off, _, _, _, _, _ = run_flaky ~seed:1 ~spec:Transport.no_fault ~n:20 () in
  let run_clean () =
    let m = machine () in
    let tp = Machine.transport m in
    let k = Transport.kind tp "flaky" in
    Transport.Endpoint.register_all tp ~kind:k (fun () -> Thread.compute 50);
    Machine.spawn m ~on:0
      (Thread.repeat 20 (fun i ->
           let* () = Transport.post tp k ~dst:(1 + (i mod 7)) ~words:16 () in
           Thread.sleep 100));
    Machine.run m;
    Machine.digest m
  in
  Alcotest.(check string) "zero-probability faults change nothing" (run_clean ()) d_off

let test_drop_all () =
  let _, posted, delivered, dropped, handled, tp =
    run_flaky ~seed:3
      ~spec:{ Transport.no_fault with drop = 1.0 }
      ~n:10 ()
  in
  Alcotest.(check int) "all posted" 10 posted;
  Alcotest.(check int) "all dropped" 10 dropped;
  Alcotest.(check int) "none delivered" 0 delivered;
  Alcotest.(check int) "handler never ran" 0 handled;
  (* Dropped messages are accounted for: the sanitizer stays silent. *)
  Transport.check_all_delivered tp;
  Alcotest.(check int) "nothing in flight" 0 (Transport.inflight_total tp)

let test_duplicate_all () =
  let _, posted, delivered, _, handled, tp =
    run_flaky ~seed:5
      ~spec:{ Transport.no_fault with duplicate = 1.0 }
      ~n:10 ()
  in
  Alcotest.(check int) "all posted" 10 posted;
  Alcotest.(check int) "each delivered twice" 20 delivered;
  Alcotest.(check int) "handler ran twice per post" 20 handled;
  Transport.check_all_delivered tp;
  Alcotest.(check int) "nothing in flight" 0 (Transport.inflight_total tp)

let test_delay_all () =
  let _, posted, delivered, _, handled, tp =
    run_flaky ~seed:9
      ~spec:{ Transport.no_fault with delay = 1.0; delay_cycles = 500 }
      ~n:10 ()
  in
  Alcotest.(check int) "all posted" 10 posted;
  Alcotest.(check int) "all delivered despite the delay leg" 10 delivered;
  Alcotest.(check int) "handler ran for each" 10 handled;
  Transport.check_all_delivered tp;
  Alcotest.(check int) "nothing in flight" 0 (Transport.inflight_total tp)

let test_cancel_pending_delays () =
  (* Deliveries stuck in the fault-delay stage are cancellable timers:
     revoking them counts the messages as dropped, so the in-flight
     account closes without them ever arriving. *)
  let m = machine () in
  let tp = Machine.transport m in
  let k = Transport.kind tp "flaky" in
  let handled = ref 0 in
  Transport.Endpoint.register_all tp ~kind:k (fun () ->
      incr handled;
      Thread.return ());
  Transport.configure_faults tp ~seed:13
    [ ("flaky", { Transport.no_fault with delay = 1.0; delay_cycles = 1_000_000 }) ];
  Machine.spawn m ~on:0 (Thread.repeat 5 (fun i -> Transport.post tp k ~dst:(1 + i) ~words:8 ()));
  (* Far enough for every wire hop to land (arming the delay timers),
     far before any timer expires. *)
  Machine.run ~until:5_000 m;
  Alcotest.(check int) "all posted" 5 (Transport.posted tp "flaky");
  Alcotest.(check int) "all stuck in the delay stage" 5 (Transport.inflight tp "flaky");
  Alcotest.(check int) "five timers pending" 5 (Transport.pending_delays tp);
  Alcotest.(check int) "five timers revoked" 5 (Transport.cancel_pending_delays tp);
  Alcotest.(check int) "revoked deliveries count as dropped" 5 (Transport.dropped tp "flaky");
  Transport.check_all_delivered tp;
  Alcotest.(check int) "nothing in flight" 0 (Transport.inflight_total tp);
  (* Draining the simulator delivers nothing: the events are gone. *)
  Machine.run m;
  Alcotest.(check int) "no handler ever ran" 0 !handled;
  Alcotest.(check int) "second sweep finds nothing" 0 (Transport.cancel_pending_delays tp)

let test_delay_timers_forget_fired () =
  (* A delay timer forgets itself when it fires: once every delayed
     delivery has arrived, the transport holds none of them. *)
  let _, posted, delivered, _, handled, tp =
    run_flaky ~seed:9
      ~spec:{ Transport.no_fault with delay = 1.0; delay_cycles = 300 }
      ~n:200 ()
  in
  Alcotest.(check int) "all posted" 200 posted;
  Alcotest.(check int) "all delivered" 200 delivered;
  Alcotest.(check int) "handler ran for each" 200 handled;
  Alcotest.(check int) "no delay timer retained" 0 (Transport.pending_delays tp);
  Alcotest.(check int) "nothing left to cancel" 0 (Transport.cancel_pending_delays tp)

let test_sanitizer_catches_lost_message () =
  (* Stop the run before the message can arrive: it is posted, not
     dropped, and never delivered — exactly what the sanitizer exists to
     catch (a transport bug would look the same after a drained run). *)
  let m = machine () in
  let tp = Machine.transport m in
  let k = Transport.kind tp "flaky" in
  Transport.signal tp k ~src:0 ~dst:5 ~words:16 (fun () -> ());
  Machine.run ~until:1 m;
  Alcotest.(check int) "message still in flight" 1 (Transport.inflight tp "flaky");
  match Transport.check_all_delivered tp with
  | () -> Alcotest.fail "lost message not reported"
  | exception Check.Violation _ -> ()

let test_endpoint_counters () =
  let m = machine () in
  let tp = Machine.transport m in
  let k = Transport.kind tp "counted" in
  Transport.Endpoint.register_all tp ~kind:k (fun () -> Thread.return ());
  Machine.spawn m ~on:0
    (let* () = Transport.post tp k ~dst:3 ~words:4 () in
     let* () = Transport.post tp k ~dst:3 ~words:4 () in
     Transport.post tp k ~dst:6 ~words:4 ());
  Machine.run m;
  Alcotest.(check int) "proc 3 delivered" 2 (Transport.Endpoint.delivered ~kind:k ~proc:3);
  Alcotest.(check int) "proc 6 delivered" 1 (Transport.Endpoint.delivered ~kind:k ~proc:6);
  Alcotest.(check int) "proc 1 delivered" 0 (Transport.Endpoint.delivered ~kind:k ~proc:1);
  Alcotest.(check int) "kind delivered" 3 (Transport.delivered tp "counted")

let test_configure_faults_validates () =
  let tp = Machine.transport (machine ()) in
  let rejects what spec ~msg =
    match Transport.configure_faults tp ~seed:1 [ ("flaky", spec) ] with
    | () -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument m -> Alcotest.(check string) what msg m
  in
  let prefix = "Transport.configure_faults: kind \"flaky\": " in
  rejects "nan drop" { Transport.no_fault with drop = Float.nan }
    ~msg:(prefix ^ "drop = nan, expected a probability in [0, 1]");
  rejects "duplicate above 1" { Transport.no_fault with duplicate = 1.5 }
    ~msg:(prefix ^ "duplicate = 1.5, expected a probability in [0, 1]");
  rejects "negative delay" { Transport.no_fault with delay = -0.25 }
    ~msg:(prefix ^ "delay = -0.25, expected a probability in [0, 1]");
  rejects "infinite delay" { Transport.no_fault with delay = Float.infinity }
    ~msg:(prefix ^ "delay = inf, expected a probability in [0, 1]");
  rejects "negative delay_cycles" { Transport.no_fault with delay_cycles = -1 }
    ~msg:(prefix ^ "delay_cycles = -1, expected an integer >= 0");
  Alcotest.(check bool) "a rejected configuration arms nothing" false
    (Transport.faults_active tp);
  Transport.configure_faults tp ~seed:1
    [ ("flaky", { Transport.drop = 0.0; duplicate = 1.0; delay = 0.5; delay_cycles = 0 }) ];
  Alcotest.(check bool) "the closed range is accepted" true (Transport.faults_active tp)

(* Defined outcomes under faults (RPC and migration traffic): each
   caller migrates once, makes one RPC, and counts its resumptions.
   Every caller has kinds of its own, so the transport's per-kind
   counters say what happened to its messages.  A caller resumes at most
   once, exactly once if its migration arrived and at least one reply
   was delivered — in particular whenever none of its messages was
   dropped — and never if its migration was dropped.  Migrations obey
   the drop probability (certain at 1, impossible at 0).  Per kind,
   posted + duplicated = delivered + dropped once the run has drained. *)
let fault_schedule_gen =
  QCheck.Gen.(
    let prob = map (fun n -> float_of_int n /. 10.) (int_range 0 10) in
    let spec =
      map
        (fun (drop, duplicate, delay, delay_cycles) ->
          { Transport.drop; duplicate; delay; delay_cycles })
        (quad prob prob prob (int_range 0 600))
    in
    let caller = quad (int_range 0 7) (int_range 0 7) (int_range 0 7) (int_range 0 300) in
    triple (int_range 0 1000) spec (list_size (int_range 1 10) caller))

let fault_schedule_print (seed, f, callers) =
  Printf.sprintf "seed %d, drop %.1f dup %.1f delay %.1f (+%d), callers [%s]" seed
    f.Transport.drop f.duplicate f.delay f.delay_cycles
    (String.concat "; "
       (List.map
          (fun (src, hop, dst, work) -> Printf.sprintf "%d->%d rpc %d work %d" src hop dst work)
          callers))

let fault_outcomes_hold (seed, spec, callers) =
  let m = machine () in
  let tp = Machine.transport m in
  let n = List.length callers in
  let resumed = Array.make n 0 and wrong = ref 0 in
  let name what i = Printf.sprintf "%s%d" what i in
  Transport.configure_faults tp ~seed
    (List.concat
       (List.init n (fun i -> List.map (fun w -> (name w i, spec)) [ "req"; "reply"; "mig" ])));
  List.iteri
    (fun i (src, hop, dst, work) ->
      let req = Transport.kind tp (name "req" i) in
      Transport.Endpoint.register_all tp ~kind:req (fun server -> server);
      let reply = Transport.kind tp (name "reply" i) in
      let mig = Transport.kind tp (name "mig" i) in
      Machine.spawn m ~on:src
        (let* () = Transport.migrate tp mig ~dst:(Machine.proc m hop) ~words:8 ~fresh:true in
         let* v =
           Transport.call tp ~req ~reply ~dst ~args_words:4 ~result_words:2
             (let* () = Thread.compute work in
              Thread.return i)
         in
         resumed.(i) <- resumed.(i) + 1;
         if v <> i then incr wrong;
         Thread.return ()))
    callers;
  Machine.run m;
  let ctr k suffix = Stats.get (Transport.stats tp) ("xport." ^ k ^ "." ^ suffix) in
  let closed k = ctr k "posted" + ctr k "duplicated" = ctr k "delivered" + ctr k "dropped" in
  !wrong = 0
  && List.for_all
       (fun i ->
         let mig = name "mig" i and req = name "req" i and reply = name "reply" i in
         let expected =
           if Transport.dropped tp mig > 0 then 0
           else if Transport.delivered tp reply > 0 then 1
           else 0
         in
         resumed.(i) = expected
         && Transport.posted tp mig = 1
         && (spec.drop < 1.0 || Transport.dropped tp mig = 1)
         && (spec.drop > 0.0 || Transport.dropped tp mig = 0)
         && (Transport.dropped tp mig > 0
            || Transport.dropped tp req > 0
            || Transport.dropped tp reply > 0
            || resumed.(i) = 1)
         && closed mig && closed req && closed reply)
       (List.init n Fun.id)

let prop_fault_outcomes =
  QCheck.Test.make ~name:"faulty rpc/migrate: each caller resumes at most once" ~count:200
    (QCheck.make ~print:fault_schedule_print fault_schedule_gen)
    fault_outcomes_hold

(* ------------------------------------------------------------------ *)
(* Server threads recycle their contexts                              *)
(* ------------------------------------------------------------------ *)

let test_sequential_rpcs_bounded () =
  (* Every RPC is served by a fresh thread, but sequential calls never
     have more than two threads alive (caller and server), so after 10^4
     calls the machine holds two contexts and registered two thread
     handlers — not one of each per call. *)
  let m = Machine.create ~seed:11 ~n_procs:2 ~costs () in
  let tp = Machine.transport m in
  let req = Transport.kind tp "rpc" in
  Transport.Endpoint.register_all tp ~kind:req (fun server -> server);
  let reply = Transport.kind tp "rpc_reply" in
  let handlers0 = Cm_engine.Sim.handler_count m.Machine.sim in
  let calls = 10_000 in
  let sum = ref 0 in
  Machine.spawn m ~on:0
    (Thread.repeat calls (fun i ->
         let+ r =
           Transport.call tp ~req ~reply ~dst:1 ~args_words:4 ~result_words:2
             (Thread.return i)
         in
         sum := !sum + r));
  Machine.run m;
  Alcotest.(check int) "every call answered" (calls * (calls - 1) / 2) !sum;
  Alcotest.(check int) "every request delivered" calls (Transport.delivered tp "rpc");
  Alcotest.(check int) "two contexts" 2 (Thread.contexts_created m.Machine.eng);
  Alcotest.(check int) "two thread handlers" 2
    (Cm_engine.Sim.handler_count m.Machine.sim - handlers0)

let test_unregistered_endpoint_raises () =
  let m = machine () in
  let tp = Machine.transport m in
  let k = Transport.kind tp "nobody_home" in
  Transport.Endpoint.register tp ~proc:1 ~kind:k (fun () -> Thread.return ());
  Machine.spawn m ~on:0 (Transport.post tp k ~dst:2 ~words:4 ());
  match Machine.run m with
  | () -> Alcotest.fail "delivery to an unregistered endpoint did not raise"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "cm_transport"
    [
      ( "oracle",
        List.map QCheck_alcotest.to_alcotest [ prop_digest_equivalence ] );
      ( "faults",
        [
          Alcotest.test_case "same seed, same faults" `Quick test_fault_determinism;
          Alcotest.test_case "zero-probability config is free" `Quick
            test_faults_off_is_baseline;
          Alcotest.test_case "drop everything" `Quick test_drop_all;
          Alcotest.test_case "duplicate everything" `Quick test_duplicate_all;
          Alcotest.test_case "delay everything" `Quick test_delay_all;
          Alcotest.test_case "cancel pending delays" `Quick test_cancel_pending_delays;
          Alcotest.test_case "fired delay timers forgotten" `Quick
            test_delay_timers_forget_fired;
          Alcotest.test_case "sanitizer catches a lost message" `Quick
            test_sanitizer_catches_lost_message;
          Alcotest.test_case "configure_faults validates" `Quick test_configure_faults_validates;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_fault_outcomes ] );
      ( "recycling",
        [ Alcotest.test_case "sequential rpcs bounded" `Quick test_sequential_rpcs_bounded ] );
      ( "endpoints",
        [
          Alcotest.test_case "per-endpoint delivery counters" `Quick test_endpoint_counters;
          Alcotest.test_case "unregistered endpoint raises" `Quick
            test_unregistered_endpoint_raises;
        ] );
    ]
