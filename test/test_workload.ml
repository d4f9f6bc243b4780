(* Tests for the workload driver, metrics, schemes, and experiment
   harness — including shape assertions on small experiment instances
   (the orderings the paper's evaluation hinges on). *)

open Cm_machine
open Cm_workload
open Cm_experiments
open Thread.Infix

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let test_metrics_rates () =
  let m =
    Metrics.compute ~ops:50 ~measured_cycles:100_000 ~words:2_000 ~messages:10
      ~cache_hit_rate:0.5 ()
  in
  Alcotest.(check (float 1e-9)) "throughput" 0.5 m.Metrics.throughput;
  Alcotest.(check (float 1e-9)) "bandwidth" 0.2 m.Metrics.bandwidth;
  Alcotest.(check int) "messages" 10 m.Metrics.messages

let test_metrics_zero_window () =
  let m = Metrics.compute ~ops:0 ~measured_cycles:0 ~words:0 ~messages:0 ~cache_hit_rate:nan () in
  Alcotest.(check (float 1e-9)) "no division by zero" 0. m.Metrics.throughput

let test_metrics_pp () =
  let m =
    Metrics.compute ~ops:5 ~measured_cycles:1000 ~words:100 ~messages:7 ~cache_hit_rate:nan ()
  in
  let s = Format.asprintf "%a" Metrics.pp m in
  Alcotest.(check bool) "mentions ops" true (String.length s > 0)

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let test_driver_counts_ops () =
  let machine = Machine.create ~seed:1 ~n_procs:4 ~costs:Costs.software () in
  let m =
    Driver.run machine
      { Driver.requesters = 2; first_proc = 0; think = 0; warmup = 0; horizon = 10_000 }
      (fun _ -> Thread.compute 100)
  in
  (* Each op takes 100 cycles plus a dispatch; two requesters. *)
  Alcotest.(check bool) "roughly 2 * horizon/100 ops" true (m.Metrics.ops > 120 && m.Metrics.ops < 200)

let test_driver_think_time_slows () =
  let run think =
    let machine = Machine.create ~seed:1 ~n_procs:4 ~costs:Costs.software () in
    (Driver.run machine
       { Driver.requesters = 2; first_proc = 0; think; warmup = 0; horizon = 20_000 }
       (fun _ -> Thread.compute 100))
      .Metrics.ops
  in
  Alcotest.(check bool) "think time reduces throughput" true (run 1_000 < run 0 / 2)

let test_driver_warmup_excluded () =
  let machine = Machine.create ~seed:1 ~n_procs:2 ~costs:Costs.software () in
  let m =
    Driver.run machine
      { Driver.requesters = 1; first_proc = 0; think = 0; warmup = 5_000; horizon = 10_000 }
      (fun _ -> Thread.compute 100)
  in
  Alcotest.(check int) "window length" 5_000 m.Metrics.measured_cycles;
  Alcotest.(check bool) "about half the ops counted" true (m.Metrics.ops < 60)

let test_driver_validates () =
  let machine = Machine.create ~seed:1 ~n_procs:2 ~costs:Costs.software () in
  Alcotest.check_raises "warmup past horizon"
    (Invalid_argument "Driver.run: warmup past horizon") (fun () ->
      ignore
        (Driver.run machine
           { Driver.requesters = 1; first_proc = 0; think = 0; warmup = 10; horizon = 5 }
           (fun _ -> Thread.return ())));
  Alcotest.check_raises "no requesters" (Invalid_argument "Driver.run: no requesters")
    (fun () ->
      ignore
        (Driver.run machine
           { Driver.requesters = 0; first_proc = 0; think = 0; warmup = 0; horizon = 5 }
           (fun _ -> Thread.return ())))

let test_driver_latency_tracked () =
  let machine = Machine.create ~seed:1 ~n_procs:2 ~costs:Costs.software () in
  let m =
    Driver.run machine
      { Driver.requesters = 1; first_proc = 0; think = 0; warmup = 0; horizon = 10_000 }
      (fun _ -> Thread.compute 200)
  in
  (* Each op is 200 cycles of compute (plus an occasional dispatch). *)
  Alcotest.(check bool) "mean latency ~200"
    true
    (m.Metrics.mean_latency >= 200. && m.Metrics.mean_latency < 250.);
  Alcotest.(check bool) "max >= mean" true
    (float_of_int m.Metrics.max_latency >= m.Metrics.mean_latency)

let test_driver_deterministic () =
  let run () =
    let machine = Machine.create ~seed:9 ~n_procs:4 ~costs:Costs.software () in
    let m =
      Driver.run machine
        { Driver.requesters = 3; first_proc = 0; think = 50; warmup = 1_000; horizon = 30_000 }
        (fun _ ->
          let* r = Thread.rng in
          Thread.compute (50 + Cm_engine.Rng.int r 100))
    in
    (m.Metrics.ops, m.Metrics.words)
  in
  Alcotest.(check (pair int int)) "identical reruns" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Scheme                                                             *)
(* ------------------------------------------------------------------ *)

let test_scheme_names () =
  Alcotest.(check string) "sm" "SM" (Scheme.name Scheme.Sm);
  Alcotest.(check string) "cp full" "CP w/repl. & HW"
    (Scheme.name (Scheme.Cp { hw = true; repl = true }));
  Alcotest.(check string) "rpc hw" "RPC w/HW" (Scheme.name (Scheme.Rpc { hw = true; repl = false }))

let test_scheme_parse_roundtrip () =
  List.iter
    (fun s ->
      match Scheme.of_string s with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "should parse %s: %s" s e)
    [ "sm"; "rpc"; "cp"; "rpc+hw"; "cp+repl"; "cp+repl+hw"; "CP+HW+REPL" ];
  (match Scheme.of_string "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nonsense should not parse");
  match Scheme.of_string "cp+hw" with
  | Ok (Scheme.Cp { hw = true; repl = false }) -> ()
  | _ -> Alcotest.fail "cp+hw parsed wrong"

let test_scheme_costs () =
  Alcotest.(check bool) "sm uses software costs" true (Scheme.costs Scheme.Sm = Costs.software);
  Alcotest.(check bool) "hw scheme uses hardware costs" true
    (Scheme.costs (Scheme.Cp { hw = true; repl = false }) = Costs.hardware)

(* ------------------------------------------------------------------ *)
(* Experiment shape assertions (small instances)                      *)
(* ------------------------------------------------------------------ *)

let small = { Counting_run.default with Counting_run.requesters = 16; horizon = 80_000; warmup = 10_000 }

let counting scheme = Counting_run.run scheme small

let test_counting_shape_throughput () =
  let sm = counting Scheme.Sm in
  let cp = counting (Scheme.Cp { hw = false; repl = false }) in
  let cp_hw = counting (Scheme.Cp { hw = true; repl = false }) in
  let rpc = counting (Scheme.Rpc { hw = false; repl = false }) in
  Alcotest.(check bool) "cp beats rpc" true Metrics.(cp.throughput > rpc.throughput);
  Alcotest.(check bool) "hw helps cp" true Metrics.(cp_hw.throughput > cp.throughput);
  Alcotest.(check bool) "sm competitive" true Metrics.(sm.throughput > rpc.throughput)

let test_counting_shape_bandwidth () =
  let sm = counting Scheme.Sm in
  let cp = counting (Scheme.Cp { hw = false; repl = false }) in
  Alcotest.(check bool) "sm uses much more bandwidth" true
    Metrics.(sm.bandwidth > 3. *. cp.bandwidth)

let btree scheme =
  Btree_run.run scheme
    { Btree_run.default with Btree_run.n_keys = 3_000; horizon = 120_000; warmup = 20_000 }

let test_btree_shape () =
  let sm = btree Scheme.Sm in
  let cp = btree (Scheme.Cp { hw = false; repl = false }) in
  let cp_repl = btree (Scheme.Cp { hw = false; repl = true }) in
  let rpc = btree (Scheme.Rpc { hw = false; repl = false }) in
  Alcotest.(check bool) "cp beats rpc" true Metrics.(cp.throughput > rpc.throughput);
  Alcotest.(check bool) "replication helps cp" true Metrics.(cp_repl.throughput > cp.throughput);
  Alcotest.(check bool) "sm beats plain cp" true Metrics.(sm.throughput > cp.throughput);
  Alcotest.(check bool) "sm bandwidth dominates" true Metrics.(sm.bandwidth > 5. *. cp.bandwidth)

let test_fig1_functions_match_model () =
  let messages m = Network.total_messages m.Machine.net in
  Alcotest.(check int) "rpc" 24
    (messages (Fig1.run_messaging ~access:Cm_runtime.Runtime.Rpc ~n:3 ~m:4));
  Alcotest.(check int) "cp" 5
    (messages (Fig1.run_messaging ~access:Cm_runtime.Runtime.Migrate ~n:3 ~m:4));
  Alcotest.(check int) "dm" 8 (messages (Fig1.run_shmem ~n:3 ~m:4))

let test_table5_measured_equals_model () =
  let model = Costs.breakdown Costs.software ~words:8 ~hops:2 ~user_code:150 in
  Alcotest.(check int) "end-to-end = model total" (List.assoc "Total time" model)
    (Table5.measure_one_migration (Table5.migration_machine ()))

let test_detail_report () =
  let machine, _ =
    Counting_run.run_with_machine
      (Scheme.Cp { hw = false; repl = false })
      { Counting_run.default with Counting_run.requesters = 4; horizon = 50_000; warmup = 5_000 }
  in
  let d = Detail.collect machine in
  Alcotest.(check int) "clock" 50_000 d.Detail.now;
  (match d.Detail.utilizations with
  | (_, hottest) :: _ -> Alcotest.(check bool) "hottest busy" true (hottest > 0.)
  | [] -> Alcotest.fail "no processors");
  Alcotest.(check bool) "migrate traffic attributed" true
    (List.exists (fun (kind, _, _) -> kind = "migrate") d.Detail.traffic);
  Alcotest.(check bool) "words add up" true
    (List.fold_left (fun acc (_, _, w) -> acc + w) 0 d.Detail.traffic = d.Detail.total_words);
  (* Rendering succeeds and mentions the network line. *)
  let s = Format.asprintf "%a" Detail.pp d in
  Alcotest.(check bool) "renders" true (String.length s > 50)

let test_registry_complete () =
  let ids = List.map (fun e -> e.Registry.id) Registry.all in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " present") true (List.mem id ids);
      match Registry.find id with
      | Some e -> Alcotest.(check string) "find returns it" id e.Registry.id
      | None -> Alcotest.failf "find %s failed" id)
    [ "fig1"; "fig2"; "fig3"; "table1"; "table2"; "table3"; "table4"; "table5"; "fanout10" ];
  Alcotest.(check bool) "unknown id" true (Registry.find "table9" = None)

(* ------------------------------------------------------------------ *)
(* Allocation ceilings                                                *)
(* ------------------------------------------------------------------ *)

(* The runs and their measurement live in [Alloc_runs], shared with
   the exact pins of test/alloc_pins.expected.  The ceilings here catch
   a gross regression with a readable message: a hot path that starts
   allocating a closure per event again, the generic scope/call path
   reappearing on the per-object method-site path, or a sampler boxing
   its Int64 state per draw. *)
let test_alloc_ceiling ceiling run () =
  let words = Alloc_runs.minor_words_of_run run in
  if not (words > 0. && words <= ceiling) then
    Alcotest.failf "%.0f minor words/run, expected in (0, %.1e]: a hot path regressed to allocating"
      words ceiling

let test_table5_allocates () =
  let words = Alloc_runs.minor_words_of_run Alloc_runs.table5 in
  Alcotest.(check bool) "table5 minor words/run > 0" true (words > 0.)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cm_workload"
    [
      ( "metrics",
        [
          Alcotest.test_case "rates" `Quick test_metrics_rates;
          Alcotest.test_case "zero window" `Quick test_metrics_zero_window;
          Alcotest.test_case "pp" `Quick test_metrics_pp;
        ] );
      ( "driver",
        [
          Alcotest.test_case "counts ops" `Quick test_driver_counts_ops;
          Alcotest.test_case "think time" `Quick test_driver_think_time_slows;
          Alcotest.test_case "warmup excluded" `Quick test_driver_warmup_excluded;
          Alcotest.test_case "validates" `Quick test_driver_validates;
          Alcotest.test_case "latency tracked" `Quick test_driver_latency_tracked;
          Alcotest.test_case "deterministic" `Quick test_driver_deterministic;
        ] );
      ( "scheme",
        [
          Alcotest.test_case "names" `Quick test_scheme_names;
          Alcotest.test_case "parse" `Quick test_scheme_parse_roundtrip;
          Alcotest.test_case "costs" `Quick test_scheme_costs;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "counting throughput" `Slow test_counting_shape_throughput;
          Alcotest.test_case "counting bandwidth" `Slow test_counting_shape_bandwidth;
          Alcotest.test_case "btree orderings" `Slow test_btree_shape;
          Alcotest.test_case "fig1 model" `Quick test_fig1_functions_match_model;
          Alcotest.test_case "table5 exact" `Quick test_table5_measured_equals_model;
          Alcotest.test_case "registry complete" `Quick test_registry_complete;
          Alcotest.test_case "detail report" `Quick test_detail_report;
        ] );
      ( "alloc",
        List.map
          (fun (name, ceiling, run) ->
            Alcotest.test_case (name ^ " ceiling") `Quick (test_alloc_ceiling ceiling run))
          Alloc_runs.ceilings
        @ [ Alcotest.test_case "table5 allocates" `Quick test_table5_allocates ] );
    ]
