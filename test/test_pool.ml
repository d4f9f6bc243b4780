(* The domain pool and the parallel sweep harness built on it.

   The deterministic-output contract is the whole point: for any job
   list, any domain count, and any completion order, [Pool.run_all]
   returns results in submission order and the experiment layer renders
   reports identical to a sequential run.  The qcheck property at the
   bottom checks that end to end: the reports and machine digests of
   real experiments, under the sanitizers, at -j 2/4 vs. -j 1. *)

open Cm_engine
open Cm_experiments

(* --- pool mechanics ----------------------------------------------- *)

let with_pool ~domains f =
  let pool = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* Jobs finishing in scrambled order must not scramble results: each job
   spins for a different amount of work (later submissions cheaper, so
   they tend to finish first) and run_all must still return submission
   order. *)
let test_result_order () =
  with_pool ~domains:3 (fun pool ->
      let n = 24 in
      let spin i =
        let rounds = (n - i) * 2_000 in
        let acc = ref 0 in
        for k = 1 to rounds do
          acc := (!acc * 7) + k
        done;
        ignore !acc;
        i
      in
      let results = Pool.run_all pool (List.init n (fun i -> fun () -> spin i)) in
      Alcotest.(check (list int)) "submission order" (List.init n Fun.id) results)

let test_oversubscription () =
  (* Far more jobs than domains: everything still completes, in order. *)
  with_pool ~domains:2 (fun pool ->
      let n = 200 in
      let results = Pool.run_all pool (List.init n (fun i -> fun () -> i * i)) in
      Alcotest.(check (list int)) "all jobs ran" (List.init n (fun i -> i * i)) results)

let test_raising_job () =
  with_pool ~domains:2 (fun pool ->
      let boom = Pool.submit pool (fun () -> failwith "boom") in
      let ok = Pool.submit pool (fun () -> 41 + 1) in
      Alcotest.check_raises "exception propagates to await" (Failure "boom") (fun () ->
          ignore (Pool.await boom : int));
      (* The worker that ran the raising job must survive for later jobs. *)
      Alcotest.(check int) "pool survives a raising job" 42 (Pool.await ok);
      let again = Pool.submit pool (fun () -> "still alive") in
      Alcotest.(check string) "submit after failure" "still alive" (Pool.await again))

let test_shutdown () =
  let pool = Pool.create ~domains:2 in
  let tasks = List.init 8 (fun i -> Pool.submit pool (fun () -> i)) in
  Pool.shutdown pool;
  (* Shutdown drains the queue: every task submitted before it completes. *)
  List.iteri
    (fun i task -> Alcotest.(check int) "drained before join" i (Pool.await task))
    tasks;
  (* Idempotent, and submissions are refused afterwards. *)
  Pool.shutdown pool;
  Alcotest.check_raises "submit after shutdown" (Invalid_argument "Pool.submit: pool is shut down")
    (fun () -> ignore (Pool.submit pool (fun () -> ())))

let test_create_validates () =
  Alcotest.check_raises "zero domains" (Invalid_argument "Pool.create: need at least one domain")
    (fun () -> ignore (Pool.create ~domains:0))

(* --- end-to-end determinism of the parallel sweep harness ---------- *)

(* The cheap experiments (quick mode keeps each under a second).  Every
   one is a list of pure jobs, fig1, table5, objmig and the ablations
   included, so the pool must reproduce each report and its machine
   digests byte for byte. *)
let cheap_experiments = [ "fig1"; "table3"; "table4"; "fanout10"; "table5"; "objmig"; "ablations" ]

let entry_of id =
  match Registry.find id with
  | Some e -> e
  | None -> Alcotest.failf "unknown experiment %s" id

(* One sanitized run of a set of experiments: each one's report and the
   digests of the machines it ran. *)
let sanitized_runs ?pool ids =
  Check.set_enabled true;
  Check.reset ();
  Fun.protect
    ~finally:(fun () ->
      Check.set_enabled false;
      Check.reset ())
    (fun () -> List.map (fun id -> Registry.run ~quick:true ?pool (entry_of id)) ids)

let prop_parallel_matches_sequential =
  QCheck.Test.make ~name:"experiments at -j 2/4 are byte-identical to -j 1" ~count:3
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 3) (int_range 0 (List.length cheap_experiments - 1)))
        (int_range 0 1))
    (fun (picks, j_pick) ->
      let ids = List.map (fun i -> List.nth cheap_experiments i) picks in
      let domains = if j_pick = 0 then 2 else 4 in
      let base = sanitized_runs ids in
      let par = with_pool ~domains (fun pool -> sanitized_runs ~pool ids) in
      List.iter2
        (fun id ((base_report, base_digests), (par_report, par_digests)) ->
          if not (String.equal base_report par_report) then
            QCheck.Test.fail_reportf "%s: report differs at -j %d" id domains;
          if base_digests <> par_digests then
            QCheck.Test.fail_reportf "%s: machine digests differ at -j %d (%d vs %d runs)" id
              domains (List.length base_digests) (List.length par_digests))
        ids (List.combine base par);
      true)

let () =
  Alcotest.run "pool"
    [
      ( "mechanics",
        [
          Alcotest.test_case "results in submission order" `Quick test_result_order;
          Alcotest.test_case "oversubscription" `Quick test_oversubscription;
          Alcotest.test_case "raising job propagates, pool survives" `Quick test_raising_job;
          Alcotest.test_case "shutdown drains, then refuses" `Quick test_shutdown;
          Alcotest.test_case "create validates domain count" `Quick test_create_validates;
        ] );
      ( "determinism",
        List.map QCheck_alcotest.to_alcotest [ prop_parallel_matches_sequential ] );
    ]
