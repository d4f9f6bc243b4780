(* The benchmark harness.

   Running this executable regenerates every table and figure of the
   paper's evaluation (the same rows `bin/repro all` prints), then runs
   one Bechamel micro-benchmark per table/figure, timing the simulation
   that regenerates it (at reduced horizons, so the measurement loop
   stays tractable).

   The Bechamel pass also emits a machine-readable JSON file — the
   repository's perf-regression trajectory.  Each record carries the
   OLS ns/run estimate plus, where the workload exposes its machine,
   one instrumented run's simulated clock and event count, from which
   the throughput figures simulated-cycles/sec and events/sec are
   derived.  Perf PRs commit the refreshed file (BENCH_<pr>.json) and
   CI runs the smoke mode so a hot-path regression fails the build.

   Usage:
     dune exec bench/main.exe               reproduction rows + bechamel
     dune exec bench/main.exe -- rows       reproduction rows only
     dune exec bench/main.exe -- bench [f]  bechamel + JSON (default BENCH_pr7.json)
     dune exec bench/main.exe -- quick      reduced-horizon rows + bechamel
     dune exec bench/main.exe -- smoke [f]  fast bechamel pass for CI
                                            (default BENCH_smoke.json)
     dune exec bench/main.exe -- one NAME[,NAME...] [f]
                                            bechamel for selected specs, at the
                                            full-bench horizons (iterating on
                                            a few rows without the whole
                                            sweep); with [f], record them as
                                            JSON
     dune exec bench/main.exe -- sweep [f]  wall-clock of the full fig2 and
                                            table1 sweeps at -j 1 vs -j N
                                            (N from CM_JOBS, an integer >= 1,
                                            default 4; other values exit 124);
                                            JSON with a speedup field per
                                            experiment (default BENCH_pr4.json)
     dune exec bench/main.exe -- big [f]    the million-object scale probes:
                                            10^6 registrations into the flat
                                            vs boxed object store, full-size
                                            dht_zipf and social_graph runs,
                                            and a paired A/B of flat vs boxed
                                            DHT buckets (interleaved reps,
                                            digest cross-check; fails if the
                                            flat store's minor words/op are
                                            not >= 10x below the boxed rep's)
                                            (default BENCH_pr8.json)
*)

open Cm_experiments

let counting_cfg ~horizon requesters =
  {
    Counting_run.default with
    Counting_run.requesters;
    horizon;
    warmup = 10_000;
  }

let btree_cfg ~horizon think =
  { Btree_run.default with Btree_run.think; horizon; warmup = 10_000 }

let fanout10_cfg ~horizon = { Btree_run.fanout10 with Btree_run.horizon = horizon; warmup = 10_000 }

let bench_scheme_counting scheme ~horizon requesters () =
  ignore (Counting_run.run scheme (counting_cfg ~horizon requesters))

let bench_scheme_btree scheme ~horizon think () =
  ignore (Btree_run.run scheme (btree_cfg ~horizon think))

let bench_fig1 () =
  (* One large cell of the message-model sweep per mechanism. *)
  ignore (Fig1.run_messaging ~access:Cm_runtime.Runtime.Migrate ~n:16 ~m:32);
  ignore (Fig1.run_messaging ~access:Cm_runtime.Runtime.Rpc ~n:16 ~m:32);
  ignore (Fig1.run_shmem ~n:16 ~m:32)

let bench_table5 () = ignore (Table5.measure_one_migration ())

(* One measured workload: the Bechamel thunk plus, where the experiment
   exposes its machine, an instrumented single run for the simulated
   clock / event-count the JSON throughput figures derive from. *)
type spec = {
  name : string;
  thunk : unit -> unit;
  probe : (unit -> Cm_machine.Machine.t * Cm_workload.Metrics.t) option;
}

let counting_spec name scheme ~horizon requesters =
  {
    name;
    thunk = bench_scheme_counting scheme ~horizon requesters;
    probe = Some (fun () -> Counting_run.run_with_machine scheme (counting_cfg ~horizon requesters));
  }

let btree_spec name scheme ~horizon think =
  {
    name;
    thunk = bench_scheme_btree scheme ~horizon think;
    probe = Some (fun () -> Btree_run.run_with_machine scheme (btree_cfg ~horizon think));
  }

(* Horizons.  The full bench mode runs the two headline rows (fig2,
   table1) long enough that the event loop — the thing the perf work
   targets — dominates per-run machine construction; the remaining rows
   get a moderate horizon, and the quick/smoke modes a short one so CI
   stays fast.  Comparisons across revisions are only meaningful at
   matching horizons (the JSON carries ns/run, not a normalized cost). *)
let specs ~full =
  let long = if full then 6_000_000 else 60_000 in
  let mid = if full then 300_000 else 60_000 in
  [
    { name = "fig1:message-model"; thunk = bench_fig1; probe = None };
    counting_spec "fig2:counting-throughput"
      (Scheme.Cp { hw = false; repl = false })
      ~horizon:long 32;
    counting_spec "fig3:counting-bandwidth" Scheme.Sm ~horizon:mid 32;
    btree_spec "table1:btree-throughput"
      (Scheme.Cp { hw = false; repl = false })
      ~horizon:long 0;
    btree_spec "table2:btree-bandwidth" Scheme.Sm ~horizon:mid 0;
    btree_spec "table3:btree-think" (Scheme.Cp { hw = false; repl = true }) ~horizon:mid 10_000;
    btree_spec "table4:btree-think-bw" Scheme.Sm ~horizon:mid 10_000;
    { name = "table5:migration-cost"; thunk = bench_table5; probe = None };
    {
      name = "fanout10:small-nodes";
      thunk =
        (fun () ->
          ignore
            (Btree_run.run (Scheme.Cp { hw = false; repl = true }) (fanout10_cfg ~horizon:mid)));
      probe =
        Some
          (fun () ->
            Btree_run.run_with_machine
              (Scheme.Cp { hw = false; repl = true })
              (fanout10_cfg ~horizon:mid));
    };
    (* The scale experiments: quick-sized in smoke (CI asserts their
       minor-words ceilings), full 10^6-object / 1024-proc sweeps
       points in the full bench. *)
    {
      name = "dht_zipf:hot-keys";
      thunk =
        (fun () ->
          ignore (Dht_zipf.measure ~quick:(not full) (Cm_apps.Dht.Messaging Cm_core.Prelude.Rpc) 1.3));
      probe =
        Some
          (fun () ->
            Dht_zipf.measure_with_machine ~quick:(not full)
              (Cm_apps.Dht.Messaging Cm_core.Prelude.Rpc) 1.3);
    };
    {
      name = "social_graph:walks";
      thunk =
        (fun () ->
          ignore (Social_bench.measure ~quick:(not full) Social_bench.Walk Cm_core.Prelude.Migrate));
      probe =
        Some
          (fun () ->
            Social_bench.measure_with_machine ~quick:(not full) Social_bench.Walk
              Cm_core.Prelude.Migrate);
    };
  ]

(* --- JSON emission (hand-rolled: the container has no JSON library
   and the schema is flat).  A record is a list of pre-rendered
   (key, value) fields; both the bechamel pass and the sweep mode feed
   this one writer. *)

let json_str name v = Printf.sprintf "%S: %S" name v

let json_float name v = Printf.sprintf "%S: %.6e" name v

let json_int name v = Printf.sprintf "%S: %d" name v

let write_json ~mode path records =
  let oc = open_out path in
  let record fields = "    {" ^ String.concat ", " fields ^ "}" in
  Printf.fprintf oc "{\n  \"schema\": \"cm-bench/1\",\n  \"mode\": %S,\n  \"tests\": [\n%s\n  ]\n}\n"
    mode
    (String.concat ",\n" (List.map record records));
  close_out oc;
  Printf.printf "wrote %s (%d tests)\n%!" path (List.length records)

(* --- bechamel pass ------------------------------------------------ *)

type result = {
  r_name : string;
  ns_per_run : float option;
  sim_cycles : int option;
  events_fired : int option;
  sim_ops : int option;  (* completed requests inside the probe run's window *)
  minor_words_per_run : float;
  major_words_per_run : float;
}

(* GC cost of one run, measured directly (not via Bechamel's allocation
   instances, whose per-sample clamping rounds small figures away): one
   warm run, then allocation deltas averaged over a few more.  Minor
   words come from [Gc.minor_words] — it reads the allocation pointer,
   where [quick_stat]'s minor figure only advances at minor collections,
   so a small workload (table5's single migration) used to report 0.0.
   Promoted words are subtracted from the major figure so it counts only
   direct major-heap allocation. *)
let alloc_reps = 4

let alloc_of_run thunk =
  thunk ();
  let minor0 = Gc.minor_words () in
  let before = Gc.quick_stat () in
  for _ = 1 to alloc_reps do
    thunk ()
  done;
  let minor1 = Gc.minor_words () in
  let after = Gc.quick_stat () in
  let per v = v /. float_of_int alloc_reps in
  ( per (minor1 -. minor0),
    per
      (after.Gc.major_words -. before.Gc.major_words
      -. (after.Gc.promoted_words -. before.Gc.promoted_words)) )

let measure ~quota ~limit spec =
  let open Bechamel in
  let test = Test.make ~name:spec.name (Staged.stage spec.thunk) in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota) () in
  let results = Benchmark.all cfg instances test in
  let estimate = ref None in
  Hashtbl.iter (* lint: allow hashtbl-order *)
    (fun _name measurements ->
      let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
      let stats = Analyze.one ols Toolkit.Instance.monotonic_clock measurements in
      match Analyze.OLS.estimates stats with
      | Some [ est ] -> estimate := Some est
      | Some _ | None -> ())
    results;
  let sim_cycles, events_fired, sim_ops =
    match spec.probe with
    | None -> (None, None, None)
    | Some probe ->
      let machine, metrics = probe () in
      ( Some (Cm_machine.Machine.now machine),
        Some (Cm_machine.Machine.events_fired machine),
        Some metrics.Cm_workload.Metrics.ops )
  in
  let minor_words_per_run, major_words_per_run = alloc_of_run spec.thunk in
  (match !estimate with
  | Some est ->
    let throughput =
      match sim_cycles with
      | Some cycles when est > 0. ->
        Printf.sprintf "  %10.2e simcyc/s" (float_of_int cycles /. (est *. 1e-9))
      | _ -> ""
    in
    Printf.printf "%-28s %12.0f ns/run%s  %10.2e minor-w/run\n%!" spec.name est throughput
      minor_words_per_run
  | None -> Printf.printf "%-28s (no estimate)\n%!" spec.name);
  {
    r_name = spec.name;
    ns_per_run = !estimate;
    sim_cycles;
    events_fired;
    sim_ops;
    minor_words_per_run;
    major_words_per_run;
  }

let result_fields r =
  let opt f = function None -> [] | Some v -> [ f v ] in
  let derived =
    match (r.ns_per_run, r.sim_cycles, r.events_fired) with
    | Some ns, Some cycles, Some events when ns > 0. ->
      [
        json_float "sim_cycles_per_sec" (float_of_int cycles /. (ns *. 1e-9));
        json_float "events_per_sec" (float_of_int events /. (ns *. 1e-9));
      ]
    | _ -> []
  in
  let words_per_op =
    (* Whole-run minor words over completed requests — construction
       included, so an upper bound on the steady-state figure. *)
    match r.sim_ops with
    | Some ops when ops > 0 ->
      [ json_float "minor_words_per_op" (r.minor_words_per_run /. float_of_int ops) ]
    | Some _ | None -> []
  in
  [ json_str "name" r.r_name ]
  @ opt (json_float "ns_per_run") r.ns_per_run
  @ opt (json_int "sim_cycles") r.sim_cycles
  @ opt (json_int "events_fired") r.events_fired
  @ opt (json_int "sim_ops") r.sim_ops
  @ [
      json_float "minor_words_per_run" r.minor_words_per_run;
      json_float "major_words_per_run" r.major_words_per_run;
    ]
  @ words_per_op @ derived

let run_bechamel ?only ~mode ~quota ~limit ~full ~json () =
  print_endline "\n=== Bechamel micro-benchmarks (wall-clock of the regenerating sims) ===";
  let selected =
    match only with
    | None -> specs ~full
    | Some names ->
      List.map
        (fun name ->
          match List.find_opt (fun s -> s.name = name) (specs ~full) with
          | Some s -> s
          | None ->
            List.iter (fun s -> prerr_endline s.name) (specs ~full);
            failwith ("no such spec: " ^ name))
        names
  in
  let results = List.map (measure ~quota ~limit) selected in
  match json with
  | Some path -> write_json ~mode path (List.map result_fields results)
  | None -> ()

(* --- sweep mode: full-sweep wall clock at -j 1 vs -j N ------------ *)

(* Run [f] with stdout sent to /dev/null: the sweep mode times whole
   experiments, whose printed tables are already covered by the
   reproduction modes and would drown the timing lines here.  Both the
   -j 1 and -j N runs print (into the void) identically, so discarding
   the bytes does not skew the comparison. *)
let with_discarded_stdout f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o600 in
  Unix.dup2 devnull Unix.stdout;
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

let timed_run ?pool entry =
  let t0 = Unix.gettimeofday () in
  with_discarded_stdout (fun () -> Registry.run ?pool entry);
  (Unix.gettimeofday () -. t0) *. 1e3

(* The sweep's job count: 4 unless CM_JOBS is set, and then an integer
   >= 1, as for repro's -j/CM_JOBS.  Any other value is a usage error
   (exit 124, repro's message) before any work starts, not a silent 4. *)
let sweep_jobs () =
  match Sys.getenv_opt "CM_JOBS" with
  | None -> 4
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ ->
      Printf.eprintf
        "bench: environment variable 'CM_JOBS': invalid job count %S: expected an integer >= 1\n" s;
      exit 124)

let run_sweep ~jobs ~json () =
  let cores = Domain.recommended_domain_count () in
  Printf.printf "\n=== Sweep wall-clock: -j 1 vs -j %d (full fig2 + table1) ===\n%!" jobs;
  if jobs > cores then
    Printf.printf
      "note: %d core(s) available for %d domains — the -j %d run time-shares one CPU,\n\
       so speedups below 1.0x measure domain overhead, not the parallel harness.\n%!"
      cores jobs jobs;
  let entries =
    List.map
      (fun id ->
        match Registry.find id with
        | Some e -> e
        | None -> failwith ("no such experiment: " ^ id))
      [ "fig2"; "table1" ]
  in
  let records =
    List.map
      (fun entry ->
        let j1_ms = timed_run entry in
        let pool = Cm_engine.Pool.create ~domains:jobs in
        let jn_ms =
          Fun.protect
            ~finally:(fun () -> Cm_engine.Pool.shutdown pool)
            (fun () -> timed_run ~pool entry)
        in
        let speedup = j1_ms /. jn_ms in
        Printf.printf "%-10s  -j 1 %8.0f ms   -j %d %8.0f ms   speedup %.2fx\n%!"
          entry.Registry.id j1_ms jobs jn_ms speedup;
        [
          json_str "name" entry.Registry.id;
          json_int "jobs" jobs;
          json_int "cores" cores;
          json_float "j1_ms" j1_ms;
          json_float "jn_ms" jn_ms;
          json_float "speedup" speedup;
        ])
      entries
  in
  write_json ~mode:"sweep" json records

(* --- big mode: million-object scale probes ------------------------ *)

let median a =
  let s = Array.copy a in
  Array.sort compare s;
  s.(Array.length s / 2)

(* Wall-clock seconds and minor words of one call. *)
let timed_alloc f =
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  f ();
  let t1 = Unix.gettimeofday () in
  (t1 -. t0, Gc.minor_words () -. m0)

(* 10^6 registrations into the flat object store vs the pre-flat boxed
   reference ([Store_ref.Objspace_boxed], the old representation kept
   under test/) on a 1024-processor machine: objects-per-second and
   minor words per object for each side. *)
let big_register () =
  let objects = 1_000_000 in
  let n_procs = 1_024 in
  let machine () =
    Cm_machine.Machine.create ~seed:42 ~n_procs ~costs:Cm_machine.Costs.software ()
  in
  let flat_s, flat_mw =
    let s = Cm_runtime.Objspace.create (machine ()) in
    timed_alloc (fun () ->
        for i = 0 to objects - 1 do
          ignore (Cm_runtime.Objspace.register s ~home:(i land (n_procs - 1)) i)
        done)
  in
  let boxed_s, boxed_mw =
    let s = Store_ref.Objspace_boxed.create (machine ()) in
    timed_alloc (fun () ->
        for i = 0 to objects - 1 do
          ignore (Store_ref.Objspace_boxed.register s ~home:(i land (n_procs - 1)) i)
        done)
  in
  let per_sec secs = float_of_int objects /. secs in
  let per_obj mw = mw /. float_of_int objects in
  Printf.printf
    "%-28s flat %10.2e obj/s %6.2f minor-w/obj | boxed %10.2e obj/s %6.2f minor-w/obj\n%!"
    "store:register-1M" (per_sec flat_s) (per_obj flat_mw) (per_sec boxed_s) (per_obj boxed_mw);
  [
    json_str "name" "store:register-1M";
    json_int "objects" objects;
    json_int "n_procs" n_procs;
    json_float "flat_objects_per_sec" (per_sec flat_s);
    json_float "boxed_objects_per_sec" (per_sec boxed_s);
    json_float "flat_minor_words_per_object" (per_obj flat_mw);
    json_float "boxed_minor_words_per_object" (per_obj boxed_mw);
  ]

(* One full-size scale experiment, timed: the 10^6-object dht_zipf /
   social_graph sweep points, with whole-run wall clock and GC words
   (construction + preload + simulation — the number that must stay
   tractable for million-object workloads to be usable). *)
let big_scale name objects thunk =
  let metrics = ref None in
  let before = Gc.quick_stat () in
  let secs, mw = timed_alloc (fun () -> metrics := Some (thunk ())) in
  let after = Gc.quick_stat () in
  let m = Option.get !metrics in
  let major =
    after.Gc.major_words -. before.Gc.major_words
    -. (after.Gc.promoted_words -. before.Gc.promoted_words)
  in
  Printf.printf "%-28s %8.2f s  %8d sim ops  %8.3f ops/1000cyc  %9.2e minor-w  %.2e obj/s\n%!"
    name secs m.Cm_workload.Metrics.ops m.Cm_workload.Metrics.throughput mw
    (float_of_int objects /. secs);
  [
    json_str "name" name;
    json_int "objects" objects;
    json_float "wall_seconds" secs;
    json_float "objects_per_sec" (float_of_int objects /. secs);
    json_int "sim_ops" m.Cm_workload.Metrics.ops;
    json_float "sim_throughput" m.Cm_workload.Metrics.throughput;
    json_float "minor_words" mw;
    json_float "major_words" major;
  ]

(* The paired simulated A/B: the same uniform-key update stream through
   the flat int-pair buckets ([Cm_apps.Dht]) and the pre-PR-8 assoc-list
   buckets ([Store_ref.Dht_boxed]), interleaved repetitions.  Both sides
   charge identical costs over identical request streams, so the two
   machines' digests must match — the proof that the boxed reference is
   cost-identical and the A/B pair compares representations, not
   workloads.  The whole-op allocation figures recorded here include the
   per-op thread-graph construction (scope/call/bind closures) that both
   sides share, so the ratio is informative, not the acceptance floor —
   that is [big_ab_repr]'s job, which isolates the representation. *)
let big_ab_sim () =
  let node_procs = 16 and requesters = 8 in
  let keys = 20_000 and buckets = 1_024 and horizon = 120_000 in
  let reps = 5 in
  let nodes = Array.init node_procs (fun i -> i) in
  let spec =
    {
      Cm_workload.Driver.requesters;
      first_proc = node_procs;
      think = 0;
      warmup = horizon / 5;
      horizon;
    }
  in
  let machine () =
    Cm_machine.Machine.create ~seed:42 ~n_procs:(node_procs + requesters)
      ~costs:Cm_machine.Costs.software ()
  in
  (* Build table + preload (unmeasured), then drive the update stream
     measuring minor words across the simulation only. *)
  let run_flat () =
    let m = machine () in
    let env = Cm_apps.Sysenv.make m in
    let table =
      Cm_apps.Dht.create env ~buckets ~bucket_capacity:64
        ~mode:(Cm_apps.Dht.Messaging Cm_core.Prelude.Rpc) ~node_procs:nodes ()
    in
    for k = 0 to keys - 1 do
      Cm_apps.Dht.preload table ~key:k ~value:k
    done;
    let request _i =
      let open Cm_machine.Thread.Infix in
      let* r = Cm_machine.Thread.rng in
      let key = Cm_engine.Rng.int r keys in
      Cm_apps.Dht.put table ~key ~value:key
    in
    let m0 = Gc.minor_words () in
    let metrics = Cm_workload.Driver.run m spec request in
    (metrics, Gc.minor_words () -. m0, Cm_machine.Machine.digest m)
  in
  let run_boxed () =
    let m = machine () in
    let env = Cm_apps.Sysenv.make m in
    let table =
      Store_ref.Dht_boxed.create env.Cm_apps.Sysenv.prelude ~buckets ~bucket_capacity:64
        ~access:Cm_core.Prelude.Rpc ~node_procs:nodes ()
    in
    for k = 0 to keys - 1 do
      Store_ref.Dht_boxed.preload table ~key:k ~value:k
    done;
    let request _i =
      let open Cm_machine.Thread.Infix in
      let* r = Cm_machine.Thread.rng in
      let key = Cm_engine.Rng.int r keys in
      Store_ref.Dht_boxed.put table ~key ~value:key
    in
    let m0 = Gc.minor_words () in
    let metrics = Cm_workload.Driver.run m spec request in
    (metrics, Gc.minor_words () -. m0, Cm_machine.Machine.digest m)
  in
  let flat_mw = Array.make reps 0. and boxed_mw = Array.make reps 0. in
  let ops = ref 0 in
  let digests_equal = ref true in
  for r = 0 to reps - 1 do
    let fm, fw, fd = run_flat () in
    let bm, bw, bd = run_boxed () in
    if fd <> bd || fm.Cm_workload.Metrics.ops <> bm.Cm_workload.Metrics.ops then
      digests_equal := false;
    ops := fm.Cm_workload.Metrics.ops;
    flat_mw.(r) <- fw /. float_of_int (max 1 fm.Cm_workload.Metrics.ops);
    boxed_mw.(r) <- bw /. float_of_int (max 1 bm.Cm_workload.Metrics.ops)
  done;
  let flat_med = median flat_mw and boxed_med = median boxed_mw in
  let ratio = boxed_med /. Float.max flat_med 0.01 in
  Printf.printf
    "%-28s flat %7.2f minor-w/op | boxed %7.2f minor-w/op | boxed/flat x%.2f%s\n%!"
    "ab:dht-sim-digest" flat_med boxed_med ratio
    (if !digests_equal then "  digests equal" else "  DIGEST MISMATCH");
  if not !digests_equal then
    failwith "big: flat vs boxed DHT digests differ — the A/B pair is not cost-identical";
  [
    json_str "name" "ab:dht-sim-digest";
    json_int "reps" reps;
    json_int "ops" !ops;
    json_float "flat_minor_words_per_op_median" flat_med;
    json_float "boxed_minor_words_per_op_median" boxed_med;
    json_float "boxed_over_flat_ratio" ratio;
    json_str "digests_equal" (string_of_bool !digests_equal);
  ]

(* The representation probe at the full dht_zipf geometry (10^6 keys in
   65 536 buckets on a 1024-processor machine): the same precomputed
   uniform update stream applied directly to both bucket
   representations' steady state — a warm prefix first, then the
   measured ops on a warm table (the boxed list's move-to-front order
   has settled).  Flat buckets overwrite two words in place (zero minor
   words); the boxed list rebuilds O(position) cells per update.  The
   cross-check samples final values from both tables — identical streams
   must leave identical contents.  This is the acceptance floor: the
   flat store's per-op steady-state minor allocation must sit at least
   10x below the boxed representation's. *)
let big_ab_repr () =
  let keys = 1_000_000 and buckets = 65_536 and node_procs = 960 and requesters = 64 in
  let warm_ops = 200_000 and measured_ops = 800_000 in
  let stream =
    let r = Cm_engine.Rng.create ~seed:7 in
    Array.init (warm_ops + measured_ops) (fun _ -> Cm_engine.Rng.int r keys)
  in
  let drive preload_op =
    for j = 0 to warm_ops - 1 do
      let key = stream.(j) in
      preload_op ~key ~value:(key lxor j)
    done;
    timed_alloc (fun () ->
        for j = warm_ops to warm_ops + measured_ops - 1 do
          let key = stream.(j) in
          preload_op ~key ~value:(key lxor j)
        done)
  in
  let machine () =
    Cm_machine.Machine.create ~seed:42 ~n_procs:(node_procs + requesters)
      ~costs:Cm_machine.Costs.software ()
  in
  let nodes = Array.init node_procs (fun i -> i) in
  let flat_env = Cm_apps.Sysenv.make (machine ()) in
  let flat =
    Cm_apps.Dht.create flat_env ~buckets ~bucket_capacity:64
      ~mode:(Cm_apps.Dht.Messaging Cm_core.Prelude.Rpc) ~node_procs:nodes ()
  in
  for k = 0 to keys - 1 do
    Cm_apps.Dht.preload flat ~key:k ~value:k
  done;
  let flat_s, flat_mw = drive (fun ~key ~value -> Cm_apps.Dht.preload flat ~key ~value) in
  let boxed_env = Cm_apps.Sysenv.make (machine ()) in
  let boxed =
    Store_ref.Dht_boxed.create boxed_env.Cm_apps.Sysenv.prelude ~buckets ~bucket_capacity:64
      ~access:Cm_core.Prelude.Rpc ~node_procs:nodes ()
  in
  for k = 0 to keys - 1 do
    Store_ref.Dht_boxed.preload boxed ~key:k ~value:k
  done;
  let boxed_s, boxed_mw =
    drive (fun ~key ~value -> Store_ref.Dht_boxed.preload boxed ~key ~value)
  in
  (* Identical streams must leave identical tables. *)
  for s = 0 to 4_095 do
    let key = s * 244 in
    if Cm_apps.Dht.peek flat key <> Store_ref.Dht_boxed.peek boxed key then
      failwith (Printf.sprintf "big: flat vs boxed disagree on key %d after update stream" key)
  done;
  let per_op mw = mw /. float_of_int measured_ops in
  let ops_per_sec secs = float_of_int measured_ops /. secs in
  let flat_po = per_op flat_mw and boxed_po = per_op boxed_mw in
  let ratio = boxed_po /. Float.max flat_po 0.01 in
  Printf.printf
    "%-28s flat %7.2f minor-w/op %9.2e op/s | boxed %7.2f minor-w/op %9.2e op/s | x%.0f\n%!"
    "ab:dht-bucket-update" flat_po (ops_per_sec flat_s) boxed_po (ops_per_sec boxed_s) ratio;
  if flat_po *. 10. > boxed_po then
    failwith
      (Printf.sprintf
         "big: flat store's steady-state minor words/op (%.2f) is not >=10x below boxed \
          (%.2f)"
         flat_po boxed_po);
  [
    json_str "name" "ab:dht-bucket-update";
    json_int "keys" keys;
    json_int "buckets" buckets;
    json_int "measured_ops" measured_ops;
    json_float "flat_minor_words_per_op" flat_po;
    json_float "boxed_minor_words_per_op" boxed_po;
    json_float "flat_ops_per_sec" (ops_per_sec flat_s);
    json_float "boxed_ops_per_sec" (ops_per_sec boxed_s);
    json_float "boxed_over_flat_ratio" ratio;
  ]

let run_big ~json () =
  print_endline "\n=== big: million-object scale probes (flat vs boxed object space) ===";
  let r_register = big_register () in
  let r_dht =
    big_scale "dht_zipf:full-rpc-s1.3" 1_000_000 (fun () ->
        Dht_zipf.measure ~quick:false (Cm_apps.Dht.Messaging Cm_core.Prelude.Rpc) 1.3)
  in
  let r_social =
    big_scale "social_graph:full-walk-mig" 1_000_000 (fun () ->
        Social_bench.measure ~quick:false Social_bench.Walk Cm_core.Prelude.Migrate)
  in
  let r_sim = big_ab_sim () in
  let r_repr = big_ab_repr () in
  write_json ~mode:"big" json [ r_register; r_dht; r_social; r_sim; r_repr ]

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let json_arg default = if Array.length Sys.argv > 2 then Sys.argv.(2) else default in
  let quick = mode = "quick" in
  if
    mode <> "bench" && mode <> "smoke" && mode <> "one" && mode <> "sweep" && mode <> "big"
  then begin
    print_endline "Reproduction of every table and figure (see EXPERIMENTS.md for discussion):";
    Registry.run_all ~quick ()
  end;
  match mode with
  | "rows" -> ()
  | "bench" ->
    run_bechamel ~mode ~quota:3.0 ~limit:500 ~full:true
      ~json:(Some (json_arg "BENCH_pr7.json"))
      ()
  | "smoke" ->
    (* Fast pass for CI: enough to catch gross hot-path regressions and
       prove the measurement/JSON plumbing works. *)
    run_bechamel ~mode ~quota:0.05 ~limit:20 ~full:false
      ~json:(Some (json_arg "BENCH_smoke.json"))
      ()
  | "one" ->
    (* NAME[,NAME...] [JSON]: full-horizon bechamel for selected specs,
       optionally recording them (how BENCH_pr3.json's headline pair is
       produced without the whole sweep). *)
    let names = String.split_on_char ',' (json_arg "table1:btree-throughput") in
    let json = if Array.length Sys.argv > 3 then Some Sys.argv.(3) else None in
    run_bechamel ~only:names ~mode ~quota:3.0 ~limit:500 ~full:true ~json ()
  | "big" -> run_big ~json:(json_arg "BENCH_pr8.json") ()
  | "sweep" ->
    run_sweep ~jobs:(sweep_jobs ()) ~json:(json_arg "BENCH_pr4.json") ()
  | _ -> run_bechamel ~mode ~quota:0.5 ~limit:200 ~full:false ~json:None ()
