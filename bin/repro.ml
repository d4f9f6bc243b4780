(* Command-line driver: regenerate any table or figure of the paper.

   Usage:
     repro all [--quick] [-j N]    every experiment in paper order
     repro fig2 [--quick] [-j N]   one experiment
     repro list                    show available experiments
     repro custom ...              a custom single run (scheme/app/params)
     repro selfcheck [--full] [-j N]
                                   prove same-seed determinism under sanitizers

   [-j N] (or the CM_JOBS environment variable) runs the sweep points of
   each experiment on a pool of N domains; the printed output is
   byte-identical to [-j 1] — sweep points are pure jobs and all
   printing happens on the main domain in sweep order. *)

open Cmdliner
open Cm_engine
open Cm_experiments

let quick_arg =
  let doc = "Run with reduced horizons and fewer sweep points (for smoke tests)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

(* An integer with a lower bound: anything else is a usage error naming
   the valid range (exit 124), not a crash or a silent clamp. *)
let int_at_least ~what lo =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "invalid %s %S: expected an integer >= %d" what s lo))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

(* A job count is an integer >= 1, from -j or CM_JOBS alike. *)
let jobs_conv = int_at_least ~what:"job count" 1

let jobs_arg =
  let doc = "Run sweep points on $(docv) >= 1 domains.  Output is byte-identical to -j 1." in
  let env = Cmd.Env.info "CM_JOBS" ~doc:"Job count used when $(b,-j) is not given." in
  Arg.(value & opt jobs_conv 1 & info [ "j"; "jobs" ] ~env ~docv:"N" ~doc)

(* Run [f] with a pool of [jobs] domains (none when sequential), always
   shut down afterwards. *)
let with_pool jobs f =
  if jobs <= 1 then f None
  else begin
    let pool = Pool.create ~domains:jobs in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f (Some pool))
  end

let experiment_cmd entry =
  let doc = entry.Registry.title in
  Cmd.v
    (Cmd.info entry.Registry.id ~doc)
    Term.(
      const (fun quick jobs ->
          with_pool jobs (fun pool -> Registry.run ~quick ?pool entry))
      $ quick_arg $ jobs_arg)

let all_cmd =
  let doc = "Run every table and figure in paper order." in
  Cmd.v (Cmd.info "all" ~doc)
    Term.(
      const (fun quick jobs ->
          with_pool jobs (fun pool -> Registry.run_all ~quick ?pool ()))
      $ quick_arg $ jobs_arg)

let list_cmd =
  let doc = "List available experiments." in
  let list () =
    List.iter (fun e -> Printf.printf "%-10s %s\n" e.Registry.id e.Registry.title) Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const list $ const ())

(* A single custom run, for exploration. *)
let custom_cmd =
  let scheme_arg =
    let doc = "Scheme: sm, rpc, cp, optionally +hw and/or +repl (e.g. cp+repl+hw)." in
    Arg.(value & opt string "cp" & info [ "scheme" ] ~doc)
  in
  let app_arg =
    let doc = "Application: counting or btree." in
    Arg.(
      value
      & opt (enum [ ("counting", `Counting); ("btree", `Btree) ]) `Btree
      & info [ "app" ] ~doc)
  in
  let think_arg =
    let doc = "Think time in cycles between requests (>= 0)." in
    Arg.(value & opt (int_at_least ~what:"think time" 0) 0 & info [ "think" ] ~doc)
  in
  let requesters_arg =
    let doc = "Number of requester threads (>= 1)." in
    Arg.(value & opt (int_at_least ~what:"requester count" 1) 16 & info [ "requesters" ] ~doc)
  in
  let horizon_arg =
    let doc = "Simulated cycles to run; must exceed the application's warm-up." in
    Arg.(value & opt int 400_000 & info [ "horizon" ] ~doc)
  in
  let fanout_arg =
    let doc = "B-tree fanout (>= 4)." in
    Arg.(value & opt (int_at_least ~what:"fanout" 4) 100 & info [ "fanout" ] ~doc)
  in
  let detail_arg =
    let doc = "Print a post-run machine report (utilizations, traffic by kind)." in
    Arg.(value & flag & info [ "detail" ] ~doc)
  in
  let run scheme app think requesters horizon fanout detail =
    let name, warmup =
      match app with
      | `Counting -> ("counting", Counting_run.default.warmup)
      | `Btree -> ("btree", Btree_run.default.warmup)
    in
    match Scheme.of_string scheme with
    | Error e -> `Error (false, e)
    | Ok _ when horizon <= warmup ->
      `Error
        ( true,
          Printf.sprintf "invalid horizon %d: expected an integer > %d (the %s warm-up)" horizon
            warmup name )
    | Ok s ->
      let machine, metrics =
        match app with
        | `Counting ->
          Counting_run.run_with_machine s
            { Counting_run.default with Counting_run.think; requesters; horizon }
        | `Btree ->
          Btree_run.run_with_machine s
            { Btree_run.default with Btree_run.think; requesters; horizon; fanout }
      in
      let latency =
        if metrics.Cm_workload.Metrics.ops = 0 then "no op completed in the measured window"
        else Printf.sprintf "mean op latency %.0f cycles" metrics.mean_latency
      in
      Printf.printf "%s on %s: %s (%s)\n" (Scheme.name s) name
        (Format.asprintf "%a" Cm_workload.Metrics.pp metrics)
        latency;
      if detail then Cm_workload.Detail.print machine;
      `Ok ()
  in
  let doc = "One custom run with explicit parameters." in
  Cmd.v (Cmd.info "custom" ~doc)
    Term.(
      ret
        (const run $ scheme_arg $ app_arg $ think_arg $ requesters_arg $ horizon_arg
       $ fanout_arg $ detail_arg))

(* --- selfcheck: same-seed determinism proof ----------------------- *)

(* Run [f] with stdout redirected to a temp file; return [f]'s outcome
   and everything it printed.  The reports the experiments print are part
   of the observable output being checked. *)
let with_captured_stdout f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let tmp = Filename.temp_file "cm_selfcheck" ".out" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let result = try Ok (f ()) with e -> Error e in
  flush stdout;
  Unix.dup2 saved Unix.stdout;
  Unix.close saved;
  let ic = open_in_bin tmp in
  let printed = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove tmp;
  (result, printed)

(* One sanitized run of an experiment: every machine the experiment
   drives appends a digest of (final clock, events fired, statistics) to
   the Check trail, and the printed report is hashed as well. *)
let sanitized_run ?pool entry ~quick =
  Check.set_enabled true;
  Check.reset ();
  Check.Trail.set_recording true;
  let result, printed = with_captured_stdout (fun () -> Registry.run ~quick ?pool entry) in
  Check.Trail.set_recording false;
  (result, Check.Trail.trail (), Digest.to_hex (Digest.string printed))

let rec first_diff i a b =
  match (a, b) with
  | [], [] -> None
  | x :: a', y :: b' -> if String.equal x y then first_diff (i + 1) a' b' else Some i
  | _, [] | [], _ -> Some i

let selfcheck full jobs =
  let quick = not full in
  let failures = ref 0 in
  with_pool jobs (fun pool ->
      List.iter
        (fun entry ->
          let id = entry.Registry.id in
          match (sanitized_run ?pool entry ~quick, sanitized_run ?pool entry ~quick) with
          | (Ok (), trail1, out1), (Ok (), trail2, out2) ->
            if trail1 = trail2 && String.equal out1 out2 then
              (* The machine digest is printed so that a semantics-preserving
                 change (e.g. a perf PR) can diff this output against the
                 previous revision's and prove bit-identical behavior, not
                 just within-revision reproducibility. *)
              Printf.printf
                "selfcheck %-10s ok: %d machine run(s) identical, machines %s report %s\n" id
                (List.length trail1)
                (String.sub (Digest.to_hex (Digest.string (String.concat "," trail1))) 0 12)
                (String.sub out1 0 (min 12 (String.length out1)))
            else begin
              incr failures;
              Printf.printf "selfcheck %-10s MISMATCH between same-seed runs\n" id;
              (match first_diff 0 trail1 trail2 with
              | Some i ->
                Printf.printf
                  "  machine-run digests diverge at run %d (%d vs %d runs recorded)\n" i
                  (List.length trail1) (List.length trail2)
              | None -> ());
              if not (String.equal out1 out2) then
                Printf.printf "  printed reports differ (%s vs %s)\n" out1 out2
            end
          | ((Error e, _, _), _ | _, (Error e, _, _)) ->
            incr failures;
            Printf.printf "selfcheck %-10s FAILED under sanitizers: %s\n" id
              (Printexc.to_string e))
        Registry.all);
  Check.set_enabled false;
  Check.reset ();
  if !failures > 0 then begin
    Printf.printf "selfcheck: %d experiment(s) not reproducible\n" !failures;
    exit 1
  end
  else
    Printf.printf "selfcheck: all %d experiments deterministic under sanitizers\n"
      (List.length Registry.all)

let selfcheck_cmd =
  let full_arg =
    let doc = "Run the experiments at full size (the default uses --quick sizes)." in
    Arg.(value & flag & info [ "full" ] ~doc)
  in
  let doc =
    "Run every registered experiment twice with the same seed, all sanitizers enabled, and \
     fail unless the two runs are bit-identical (machine digests and printed reports)."
  in
  Cmd.v (Cmd.info "selfcheck" ~doc) Term.(const selfcheck $ full_arg $ jobs_arg)

(* Cmdliner reads "-j -3" as two options; glue a negative count to its
   flag so it reaches [jobs_conv] and is refused with the valid range. *)
let rec glue_negative_jobs = function
  | ("-j" | "--jobs") :: v :: rest when String.length v > 1 && v.[0] = '-' && v.[1] <> '-' ->
    ("--jobs=" ^ v) :: glue_negative_jobs rest
  | a :: rest -> a :: glue_negative_jobs rest
  | [] -> []

let () =
  let doc = "Reproduce the evaluation of Hsieh/Wang/Weihl, PPoPP 1993" in
  let info = Cmd.info "repro" ~version:"1.0" ~doc in
  let default = Term.(ret (const (fun _ -> `Help (`Pager, None)) $ const ())) in
  let argv = Array.of_list (glue_negative_jobs (Array.to_list Sys.argv)) in
  exit
    (Cmd.eval ~argv
       (Cmd.group ~default info
          ([ all_cmd; list_cmd; custom_cmd; selfcheck_cmd ]
          @ List.map experiment_cmd Registry.all)))
