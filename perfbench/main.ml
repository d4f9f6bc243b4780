(* perfbench: the repository benchmark (see README.md).

   From the repository root (perfbench/run.sh builds first):

     perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
                      [--trace-out FILE] [--out FILE]
     perfbench/run.sh --workload all ...   every workload in turn, each in
                                           its own child process
     perfbench/run.sh compare PARENT.json CHANGE.json [--benchmark FILE]
     perfbench/run.sh --quick [--benchmark FILE]

   A run prints progress, one [RESULT] line with every statistic, and
   last a one-line JSON summary: with [--trace 0] the end-to-end metrics,
   with [--trace 1] the per-layer ones. *)

open Cm_machine

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* --- statistics ---------------------------------------------------- *)

(* Linear interpolation between order statistics. *)
let quantile xs p =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

type summary = { median : float; q1 : float; q3 : float; n : int }

let summarize xs =
  { median = quantile xs 0.5; q1 = quantile xs 0.25; q3 = quantile xs 0.75; n = List.length xs }

let single v = summarize [ v ]

type metric = { name : string; unit_ : string; s : summary }

let metric name unit_ s = { name; unit_; s }

(* --- environment --------------------------------------------------- *)

let read_trimmed path =
  try Some (String.trim (In_channel.with_open_bin path In_channel.input_all))
  with Sys_error _ -> None

(* The checked-out revision, read from .git when the run happens in a
   clone; "unknown" elsewhere. *)
let git_rev () =
  match read_trimmed ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let name = String.sub head 5 (String.length head - 5) in
    match read_trimmed (".git/" ^ name) with
    | Some rev -> rev
    | None ->
      Option.bind (read_trimmed ".git/packed-refs") (fun packed ->
          List.find_map
            (fun line ->
              match String.split_on_char ' ' line with
              | [ rev; r ] when r = name -> Some rev
              | _ -> None)
            (String.split_on_char '\n' packed))
      |> Option.value ~default:"unknown")
  | Some rev -> rev

let env ~seed =
  Json.Obj
    [
      ("cores", Json.int (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("git_rev", Json.Str (git_rev ()));
      ("word_size", Json.int Sys.word_size);
      ("seed", Json.int seed);
      ("engine", Json.Str (Machine.engine_name (Machine.default_engine ())));
      ("shards", Json.int (Machine.default_shards ()));
      ("ocamlrunparam", Json.Str (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")));
    ]

(* Parent and change must measure the same default configuration. *)
let guard () =
  let set = List.filter (fun v -> Sys.getenv_opt v <> None) [ "CM_SHARDS"; "CM_JOBS" ] in
  let set = if Cm_engine.Check.enabled () then set @ [ "Check.enabled" ] else set in
  if set <> [] then begin
    Printf.eprintf "perfbench: refusing to run with %s set; unset it to measure the default \
                    configuration\n"
      (String.concat ", " set);
    exit 2
  end

(* --- one repetition ------------------------------------------------ *)

type tracer = { origin : float; tid : int; mutable events : Json.t list }

let span tr name ~rep t0 t1 =
  let us t = (t -. tr.origin) *. 1e6 in
  tr.events <-
    Json.Obj
      [
        ("name", Json.Str name);
        ("cat", Json.Str "perfbench");
        ("ph", Json.Str "X");
        ("ts", Json.Num (us t0));
        ("dur", Json.Num (us t1 -. us t0));
        ("pid", Json.int 1);
        ("tid", Json.int tr.tid);
        ("args", Json.Obj [ ("rep", Json.int rep) ]);
      ]
    :: tr.events

type gc_trace = { minor_words : float; promoted_words : float; retained_words : float }

type rep = {
  setup_s : float;
  app_s : float;
  sim_s : float;
  objects : int;
  digest : string;
  events : int;
  metrics : Cm_workload.Metrics.t;
  requests : int;
  counts : Layers.counts;
  gc : gc_trace option;
}

let live_words () =
  Gc.full_major ();
  float_of_int (Gc.stat ()).Gc.live_words

(* Build, then drive, one instance of the workload.  A traced
   repetition also records spans and the GC's work during the
   simulation; its heap walks lie outside the timed spans. *)
let run_rep ?tracer ~rep (w : Workloads.t) ~seed ~quick =
  Gc.full_major ();
  let t0 = now () in
  let machine = w.machine ~seed ~quick in
  let t1 = now () in
  let app = w.app ~seed ~quick machine in
  let t2 = now () in
  let live0 = match tracer with Some _ -> live_words () | None -> 0. in
  let minor0 = Gc.minor_words () and promoted0 = (Gc.quick_stat ()).Gc.promoted_words in
  let t3 = now () in
  let metrics = app.drive () in
  let t4 = now () in
  let gc =
    Option.map
      (fun tr ->
        let minor_words = Gc.minor_words () -. minor0 in
        let promoted_words = (Gc.quick_stat ()).Gc.promoted_words -. promoted0 in
        let retained_words = live_words () -. live0 in
        ignore (Sys.opaque_identity app);
        span tr "setup.machine" ~rep t0 t1;
        span tr "setup.app" ~rep t1 t2;
        span tr "sim.run" ~rep t3 t4;
        { minor_words; promoted_words; retained_words })
      tracer
  in
  {
    setup_s = t2 -. t0;
    app_s = t2 -. t1;
    sim_s = t4 -. t3;
    objects = app.objects;
    digest = Machine.digest machine;
    events = Machine.events_fired machine;
    metrics;
    requests = !(app.requests);
    counts = Layers.counts machine;
    gc;
  }

(* --- correctness --------------------------------------------------- *)

(* Every repetition must reproduce the pinned outputs (seed 42) or, for
   any other seed, the first repetition's digest; a repetition that
   raises or differs is a failed run. *)
type check = {
  pinned : Pinned.t option;
  mutable reference : rep option;
  mutable attempted : int;
  mutable failed : int;
}

let checker (w : Workloads.t) ~seed ~quick =
  let pinned = if quick || seed <> Pinned.seed then None else List.assoc_opt w.name Pinned.outputs in
  { pinned; reference = None; attempted = 0; failed = 0 }

let matches_pin (p : Pinned.t) r =
  p.digest = r.digest && p.ops = r.metrics.ops && p.events = r.events

(* Run one repetition under [chk]; [None] only when it raised.  A
   repetition with wrong outputs still returns its timings. *)
let checked chk (w : Workloads.t) f =
  chk.attempted <- chk.attempted + 1;
  let fail msg =
    chk.failed <- chk.failed + 1;
    Printf.printf "%s: FAILED run: %s\n%!" w.name msg
  in
  match f () with
  | exception e ->
    fail (Printexc.to_string e);
    None
  | r ->
    let outputs d ops events = Printf.sprintf "digest %s ops %d events %d" d ops events in
    (match (chk.pinned, chk.reference) with
    | Some p, _ when not (matches_pin p r) ->
      fail
        (Printf.sprintf "%s, pinned %s" (outputs r.digest r.metrics.ops r.events)
           (outputs p.digest p.ops p.events))
    | _, Some r0 when r0.digest <> r.digest ->
      fail (Printf.sprintf "digest %s differs from an earlier repetition's %s" r.digest r0.digest)
    | _, Some _ -> ()
    | _, None -> chk.reference <- Some r);
    Some r

(* --- schedules ----------------------------------------------------- *)

type profile = {
  quick : bool;
  seconds : float;
  min_reps : int;  (* measured repetitions, whatever the time *)
  max_reps : int;
  setups : int;  (* set-ups to take the setup_s median over ... *)
  setup_budget : float;  (* ... when set-up-only repetitions fit in this many seconds *)
  quota : float;  (* bechamel seconds per microbenchmark *)
  min_pairs : int;  (* untraced/traced repetition pairs in a traced run *)
  max_pairs : int;
}

let full seconds =
  {
    quick = false;
    seconds;
    min_reps = 5;
    max_reps = 60;
    setups = 25;
    setup_budget = 1.0;
    quota = 0.25;
    min_pairs = 2;
    max_pairs = 10;
  }

let quick_profile =
  {
    quick = true;
    seconds = 0.;
    min_reps = 2;
    max_reps = 2;
    setups = 0;
    setup_budget = 0.;
    quota = 0.002;
    min_pairs = 1;
    max_pairs = 1;
  }

(* Repeat [f] at least [min] times, then while another round (timed by
   the last one) still ends within [seconds] of [start]. *)
let repeat_for ~start ~seconds ~min ~max f =
  let last = ref 0. and n = ref 0 in
  while !n < min || (!n < max && now () -. start +. !last <= seconds) do
    let t = now () in
    incr n;
    f !n;
    last := now () -. t
  done

let mib words = float_of_int words *. float_of_int (Sys.word_size / 8) /. 1048576.

(* End-to-end: one warm-up, whose times are discarded, then measured
   repetitions for the time budget, then set-up-only repetitions where
   set-up is cheap, so that setup_s is a median over many set-ups. *)
let untraced prof (w : Workloads.t) ~seed chk =
  let quick = prof.quick in
  let start = now () in
  ignore (checked chk w (fun () -> run_rep ~rep:0 w ~seed ~quick));
  (* The peak heap of one repetition in a fresh process, read before the
     number of repetitions, which depends on host speed, can move it. *)
  let peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let reps = ref [] in
  repeat_for ~start ~seconds:prof.seconds ~min:prof.min_reps ~max:prof.max_reps (fun i ->
      match checked chk w (fun () -> run_rep ~rep:i w ~seed ~quick) with
      | Some r ->
        Printf.printf "%s rep %d: setup %.4f s, sim %.4f s, %.4g events/s\n%!" w.name i r.setup_s
          r.sim_s
          (float_of_int r.events /. r.sim_s);
        reps := r :: !reps
      | None -> ());
  let reps = List.rev !reps in
  let setups = ref (List.rev_map (fun r -> r.setup_s) reps) in
  let last = ref (match !setups with s :: _ -> s | [] -> infinity) in
  let extra_start = now () in
  while List.length !setups < prof.setups && now () -. extra_start +. !last <= prof.setup_budget do
    Gc.full_major ();
    let t0 = now () in
    let app = w.app ~seed ~quick (w.machine ~seed ~quick) in
    last := now () -. t0;
    ignore (Sys.opaque_identity app);
    setups := !last :: !setups
  done;
  let per f = summarize (List.map f reps) in
  ( reps,
    [
      metric "sim_s" "s" (per (fun r -> r.sim_s));
      metric "events_per_s" "1/s" (per (fun r -> float_of_int r.events /. r.sim_s));
      metric "setup_s" "s" (summarize !setups);
      metric "peak_heap_mb" "MiB" (single (mib peak_words));
    ],
    [] )

(* The application build of a workload, per object: from the traced
   repetitions' own set-up spans when the workload builds it, otherwise
   by building it once here (not driven). *)
let app_ns_per_object tracer (w : Workloads.t) (probe : Workloads.t) traced ~seed ~quick =
  if w.name = probe.name then
    (summarize (List.map (fun r -> r.app_s *. 1e9 /. float_of_int r.objects) traced)).median
  else begin
    Gc.full_major ();
    let machine = probe.machine ~seed ~quick in
    let t0 = now () in
    let app = probe.app ~seed ~quick machine in
    let t1 = now () in
    span tracer ("probe." ^ probe.name ^ ".setup.app") ~rep:0 t0 t1;
    (t1 -. t0) *. 1e9 /. float_of_int app.objects
  end

(* Each workload's track in the Chrome trace: its place in the list. *)
let track name =
  let rec go i = function
    | [] -> 0
    | (w : Workloads.t) :: rest -> if w.name = name then i else go (i + 1) rest
  in
  go 0 Workloads.all

(* Per-layer: unit costs first (on a small heap), a warm-up, then
   interleaved untraced/traced repetition pairs — the untraced ones give
   the sim_s the attribution is measured against, the traced ones the
   spans, counts and GC work. *)
let traced prof (w : Workloads.t) ~seed chk =
  let quick = prof.quick in
  let start = now () in
  let tracer = { origin = start; tid = track w.name; events = [] } in
  let t0 = now () in
  let c = Layers.measure ~quota:prof.quota ~zipf_n:(if quick then 20_000 else 1_000_000) in
  span tracer "layers.microbench" ~rep:0 t0 (now ());
  ignore (checked chk w (fun () -> run_rep ~rep:0 w ~seed ~quick));
  let plain = ref [] and traced = ref [] in
  repeat_for ~start ~seconds:prof.seconds ~min:prof.min_pairs ~max:prof.max_pairs (fun i ->
      let keep acc = Option.iter (fun r -> acc := r :: !acc) in
      keep plain (checked chk w (fun () -> run_rep ~rep:i w ~seed ~quick));
      keep traced (checked chk w (fun () -> run_rep ~tracer ~rep:i w ~seed ~quick)));
  let plain = List.rev !plain and traced = List.rev !traced in
  let dht_ns = app_ns_per_object tracer w Workloads.dht traced ~seed ~quick in
  let social_ns = app_ns_per_object tracer w Workloads.social traced ~seed ~quick in
  let sim = (summarize (List.map (fun r -> r.sim_s) plain)).median in
  let traced_sim = (summarize (List.map (fun r -> r.sim_s) traced)).median in
  let metrics =
    match traced with
    | [] -> []
    | r :: _ ->
      let n = r.counts in
      let f = float_of_int in
      let count name v = metric name "count" (single (f v)) in
      let ns name v = metric name "ns" (single v) in
      let gc_per name unit_ g d = metric name unit_ (summarize (List.map (fun r -> g r /. d r) traced)) in
      let gc field = function { gc = Some g; _ } -> field g | { gc = None; _ } -> nan in
      let layers = Layers.attribute w c n ~requests:r.requests in
      let predicted = List.fold_left (fun acc (_, s) -> acc +. s) 0. layers in
      let frac name v = metric name "frac" (single v) in
      [
        count "Sim.events" n.events;
        ns "Sim.post_step_ns" c.sim;
        ns "Sim.overflow_post_step_ns" c.sim_overflow;
        count "Network.messages" n.messages;
        count "Network.words" n.words;
      ]
      @ List.map (fun (k, v) -> count ("Network.messages." ^ k) v) n.messages_of_kind
      @ [ ns "Network.post_k_ns" c.network ]
      @ List.map (fun (k, v) -> count ("Transport.posted." ^ k) v) n.posted
      @ List.map (fun (k, v) -> count ("Transport.delivered." ^ k) v) n.delivered
      @ [
          ns "Transport.call_ns" c.call;
          ns "Transport.migrate_ns" c.migrate;
          count "Runtime.rpc_calls" n.rpc_calls;
          count "Runtime.migrations" n.migrations;
          count "Runtime.local_calls" n.local_calls;
          count "Runtime.scope_returns" n.scope_returns;
          ns "Runtime.msite_local_ns" c.msite_local;
          ns "Runtime.msite_rpc_ns" c.msite_rpc;
          ns "Runtime.msite_migrate_ns" c.msite_migrate;
          ns "Runtime.site_migrate_ns" c.site_migrate;
          ns "Runtime.call_scope_migrate_ns" c.call_scope_migrate;
          ns "Objspace.home_ns" c.objspace_home;
          ns "Rng.int_ns" c.rng_int;
          ns "Zipf.sample_ns" c.zipf_sample;
          gc_per "Gc.minor_words_per_event" "words/event" (gc (fun g -> g.minor_words)) (fun r ->
              f r.events);
          gc_per "Gc.promoted_words_per_event" "words/event"
            (gc (fun g -> g.promoted_words))
            (fun r -> f r.events);
          gc_per "Gc.retained_words_per_op" "words/op" (gc (fun g -> g.retained_words)) (fun r ->
              f r.requests);
          ns "Dht.preload_ns_per_key" dht_ns;
          ns "Social_graph.create_ns_per_user" social_ns;
          count "Processor.dispatches" n.dispatches;
          count "Driver.requests" r.requests;
          count "Driver.ops" r.metrics.ops;
          metric "Driver.mean_latency_cyc" "cycles" (single r.metrics.mean_latency);
          metric "attr.measured_s" "s" (single sim);
          metric "attr.predicted_s" "s" (single predicted);
        ]
      @ List.map (fun (layer, s) -> frac ("attr." ^ layer ^ ".share") (s /. sim)) layers
      @ [
          frac "attr.residual_frac" ((sim -. predicted) /. sim);
          frac "trace_overhead_frac" ((traced_sim -. sim) /. sim);
        ]
  in
  (traced, metrics, List.rev tracer.events)

(* --- reporting ----------------------------------------------------- *)

let finite m = Float.is_finite m.s.median

let summary_json m =
  Json.Obj
    [
      ("median", Json.Num m.s.median);
      ("q1", Json.Num m.s.q1);
      ("q3", Json.Num m.s.q3);
      ("n", Json.int m.s.n);
      ("unit", Json.Str m.unit_);
    ]

let outputs_json chk (reps : rep list) =
  match reps with
  | [] -> Json.Null
  | r :: _ ->
    Json.Obj
      [
        ("digest", Json.Str r.digest);
        ("ops", Json.int r.metrics.ops);
        ("events", Json.int r.events);
        ("throughput_per_1000cyc", Json.Num r.metrics.throughput);
        ("mean_latency_cyc", Json.Num r.metrics.mean_latency);
        ("max_latency_cyc", Json.int r.metrics.max_latency);
        ( "pinned",
          Json.Str
            (match chk.pinned with
            | None -> "not pinned"
            | Some p -> if matches_pin p r then "match" else "mismatch") );
      ]

let run_workload prof (w : Workloads.t) ~seed ~trace =
  let chk = checker w ~seed ~quick:prof.quick in
  let reps, metrics, events =
    if trace then traced prof w ~seed chk else untraced prof w ~seed chk
  in
  let correct = chk.failed = 0 && reps <> [] && List.for_all finite metrics in
  (match reps with
  | r :: _ ->
    Printf.printf
      "%s seed %d: digest %s, ops %d, events %d, %.4f ops/1000cyc, latency mean %.1f max %d \
       cycles\n"
      w.name seed r.digest r.metrics.ops r.events r.metrics.throughput r.metrics.mean_latency
      r.metrics.max_latency
  | [] -> ());
  List.iter
    (fun m ->
      Printf.printf "  %-34s %14.6g %-11s (q1 %.6g, q3 %.6g, n=%d)\n" m.name m.s.median m.unit_
        m.s.q1 m.s.q3 m.s.n)
    metrics;
  let result =
    Json.Obj
      [
        ("workload", Json.Str w.name);
        ("seed", Json.int seed);
        ("trace", Json.Bool trace);
        ("env", env ~seed);
        ("correct", Json.Bool correct);
        ("attempted", Json.int chk.attempted);
        ("failed", Json.int chk.failed);
        ("run_fail_frac", Json.Num (float_of_int chk.failed /. float_of_int (max 1 chk.attempted)));
        ("outputs", outputs_json chk reps);
        ("metrics", Json.Obj (List.map (fun m -> (m.name, summary_json m)) metrics));
        ("trace_events", Json.Arr events);
      ]
  in
  let line =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.int chk.attempted);
        ("failed", Json.int chk.failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun m ->
                 (m.name, Json.Obj [ ("value", Json.Num m.s.median); ("unit", Json.Str m.unit_) ]))
               metrics) );
      ]
  in
  (result, line, metrics)

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

(* Chrome trace-event JSON (opens in Perfetto and chrome://tracing): one
   track per workload. *)
let write_trace path results =
  let field k r = Option.value ~default:Json.Null (Json.member k r) in
  let tracks =
    List.map
      (fun r ->
        let name = Option.value ~default:"" (Json.to_str (field "workload" r)) in
        Json.Obj
          [
            ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("pid", Json.int 1);
            ("tid", Json.int (track name));
            ("args", Json.Obj [ ("name", Json.Str name) ]);
          ])
      results
  in
  let events = List.concat_map (fun r -> Json.to_list (field "trace_events" r)) results in
  write_file path
    (Json.to_string
       (Json.Obj [ ("traceEvents", Json.Arr (tracks @ events)); ("displayTimeUnit", Json.Str "ms") ]))

let write_results path ~seed results =
  write_file path
    (Json.to_string
       (Json.Obj
          [ ("schema", Json.Str "cm-bench/2"); ("env", env ~seed); ("workloads", Json.Arr results) ])
    ^ "\n")

(* Every workload in turn, each in its own child process (its peak heap
   is its own), never two at once. *)
let run_all ~seed ~seconds ~trace =
  List.filter_map
    (fun (w : Workloads.t) ->
      let args =
        [|
          Sys.executable_name;
          "--workload";
          w.name;
          "--seed";
          string_of_int seed;
          "--seconds";
          Printf.sprintf "%g" seconds;
          "--trace";
          (if trace then "1" else "0");
        |]
      in
      let ic = Unix.open_process_args_in Sys.executable_name args in
      let result = ref None in
      (try
         while true do
           let line = input_line ic in
           match String.index_opt line ' ' with
           | Some i when String.sub line 0 i = "RESULT" ->
             result := Some (Json.parse (String.sub line (i + 1) (String.length line - i - 1)))
           | _ -> print_endline line
         done
       with End_of_file -> ());
      (match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> ()
      | _ -> Printf.printf "%s: child process failed\n%!" w.name);
      !result)
    Workloads.all

(* --- compare ------------------------------------------------------- *)

type bound = { metric : string; lower_is_better : bool; bound : float }

let bounds benchmark =
  List.filter_map
    (fun m ->
      match
        ( Option.bind (Json.member "name" m) Json.to_str,
          Option.bind (Json.member "better" m) Json.to_str,
          Option.bind (Json.member "bound" m) Json.to_num )
      with
      | Some metric, Some better, Some bound ->
        Some { metric; lower_is_better = better = "lower"; bound }
      | _ -> None)
    (Json.to_list (Option.value ~default:Json.Null (Json.member "end_to_end" benchmark)))

(* For each (workload, metric): better / within bound / worse by the
   metric's bound, or unresolved when the parent's own interquartile
   range is wider than the bound. *)
let compare_files ~benchmark parent change =
  let bounds = bounds (Json.read_file benchmark) in
  let workloads file =
    List.filter_map
      (fun r -> Option.map (fun n -> (n, r)) (Option.bind (Json.member "workload" r) Json.to_str))
      (Json.to_list (Option.value ~default:Json.Null (Json.member "workloads" (Json.read_file file))))
  in
  let change_ws = workloads change in
  let stat r metric key =
    Option.bind (Json.member "metrics" r) (fun ms ->
        Option.bind (Json.member metric ms) (fun m -> Option.bind (Json.member key m) Json.to_num))
  in
  let worse = ref 0 in
  Printf.printf "%-16s %-14s %12s %12s %8s %6s  %s\n" "workload" "metric" "parent" "change"
    "delta" "bound" "verdict";
  List.iter
    (fun (name, p) ->
      match List.assoc_opt name change_ws with
      | None -> Printf.printf "%-16s (absent from %s)\n" name change
      | Some c ->
        List.iter
          (fun b ->
            match (stat p b.metric "median", stat p b.metric "q1", stat p b.metric "q3",
                   stat c b.metric "median")
            with
            | Some pm, Some q1, Some q3, Some cm ->
              let delta = (cm -. pm) /. pm in
              let worse_by = if b.lower_is_better then delta else -.delta in
              let verdict =
                if (q3 -. q1) /. pm > b.bound then "unresolved"
                else if worse_by > b.bound then begin
                  incr worse;
                  "worse"
                end
                else if worse_by < -.b.bound then "better"
                else "within bound"
              in
              Printf.printf "%-16s %-14s %12.6g %12.6g %+7.2f%% %5.1f%%  %s\n" name b.metric pm cm
                (100. *. delta) (100. *. b.bound) verdict
            | _ -> ())
          bounds)
    (workloads parent);
  if !worse > 0 then exit 1

(* --- quick self-test ----------------------------------------------- *)

(* Tiny horizons: every metric BENCHMARK.json names is produced with its
   unit, every workload it names exists, and repetitions agree. *)
let quick ~benchmark =
  let spec = Json.read_file benchmark in
  let named key field =
    List.filter_map
      (fun m -> Option.bind (Json.member field m) Json.to_str)
      (Json.to_list (Option.value ~default:Json.Null (Json.member key spec)))
  in
  let with_units key =
    List.sort compare
      (List.filter_map
         (fun m ->
           match
             (Option.bind (Json.member "name" m) Json.to_str,
              Option.bind (Json.member "unit" m) Json.to_str)
           with
           | Some n, Some u -> Some (n, u)
           | _ -> None)
         (Json.to_list (Option.value ~default:Json.Null (Json.member key spec))))
  in
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let names = List.map (fun (w : Workloads.t) -> w.name) Workloads.all in
  if List.sort compare (named "workloads" "name") <> List.sort compare names then
    error "BENCHMARK.json workloads differ from the harness's: %s" (String.concat ", " names);
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun (trace, key) ->
          let _, line, metrics = run_workload quick_profile w ~seed:Pinned.seed ~trace in
          let got = List.sort compare (List.map (fun m -> (m.name, m.unit_)) metrics) in
          if got <> with_units key then
            error "%s: %s metrics differ from BENCHMARK.json's %s" w.name
              (if trace then "traced" else "untraced")
              key;
          if Json.member "correct" line <> Some (Json.Bool true) then
            error "%s: %s repetitions disagree or failed" w.name
              (if trace then "traced" else "untraced"))
        [ (false, "end_to_end"); (true, "per_layer") ])
    Workloads.all;
  match !errors with
  | [] -> print_endline "perfbench quick: ok"
  | es ->
    List.iter (Printf.eprintf "perfbench quick: %s\n") (List.rev es);
    exit 1

(* --- command line -------------------------------------------------- *)

let usage =
  "perfbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] \
   [--out FILE]\n\
   perfbench compare PARENT.json CHANGE.json [--benchmark FILE]\n\
   perfbench --quick [--benchmark FILE]"

let () =
  let workload = ref "" and seed = ref Pinned.seed and seconds = ref 20. and trace = ref 0 in
  let trace_out = ref "" and out = ref "" and quick_mode = ref false in
  let benchmark = ref "BENCHMARK.json" and anon = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run, or all");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measurement budget per workload (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--trace-out", Arg.Set_string trace_out, "FILE write spans as Chrome trace-event JSON");
      ("--out", Arg.Set_string out, "FILE write the full results (cm-bench/2)");
      ("--quick", Arg.Set quick_mode, " self-test at tiny horizons");
      ("--benchmark", Arg.Set_string benchmark, "FILE benchmark definition (BENCHMARK.json)");
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> anon := a :: !anon) usage with
  | Arg.Bad msg ->
    prerr_string msg;
    exit 2
  | Arg.Help msg ->
    print_string msg;
    exit 0);
  match List.rev !anon with
  | [ "compare"; parent; change ] -> compare_files ~benchmark:!benchmark parent change
  | _ :: _ ->
    prerr_endline usage;
    exit 2
  | [] ->
    if !quick_mode then quick ~benchmark:!benchmark
    else begin
      guard ();
      if !trace <> 0 && !trace <> 1 then begin
        prerr_endline "perfbench: --trace takes 0 or 1";
        exit 2
      end;
      let trace = !trace = 1 in
      let results =
        if !workload = "all" then run_all ~seed:!seed ~seconds:!seconds ~trace
        else
          match Workloads.find !workload with
          | None ->
            Printf.eprintf "perfbench: unknown workload %S (one of: %s, all)\n" !workload
              (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
            exit 2
          | Some w ->
            let result, line, _ = run_workload (full !seconds) w ~seed:!seed ~trace in
            print_endline ("RESULT " ^ Json.to_string result);
            if !out <> "" then write_results !out ~seed:!seed [ result ];
            if !trace_out <> "" then write_trace !trace_out [ result ];
            print_endline (Json.to_string line);
            exit 0
      in
      if !out <> "" then write_results !out ~seed:!seed results;
      if !trace_out <> "" then write_trace !trace_out results
    end
