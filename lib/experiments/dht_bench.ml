open Cm_engine
open Cm_machine
open Cm_apps
open Thread.Infix

let node_procs = 16

let requesters = 8

let buckets = 64

type workload = Points | Scans | Mixed

let workload_name = function Points -> "point get/put" | Scans -> "range scans" | Mixed -> "mixed"

let modes =
  [
    Dht.Messaging Cm_core.Prelude.Rpc;
    Dht.Messaging Cm_core.Prelude.Migrate;
    Dht.Shared_memory;
    Dht.Adaptive;
  ]

let request table workload _i =
  let* r = Thread.rng in
  let point () =
    let key = Rng.int r 5000 in
    if Rng.bool r then Thread.ignore_m (Dht.get table key)
    else Dht.put table ~key ~value:key
  in
  let scan () =
    Thread.ignore_m (Dht.range_sum table ~first_bucket:(Rng.int r buckets) ~n_buckets:12)
  in
  match workload with
  | Points -> point ()
  | Scans -> scan ()
  | Mixed -> if Rng.int r 4 = 0 then scan () else point ()

let measure ~quick mode workload =
  let horizon = if quick then 120_000 else 400_000 in
  let machine =
    Machine.create ~seed:42 ~n_procs:(node_procs + requesters) ~costs:Costs.software ()
  in
  let env = Sysenv.make machine in
  let table =
    Dht.create env ~buckets ~bucket_capacity:256 ~mode
      ~node_procs:(Array.init node_procs (fun i -> i))
      ()
  in
  (* Preload outside the measurement window. *)
  Machine.spawn machine ~on:node_procs
    (Thread.repeat 500 (fun i -> Dht.put table ~key:(i * 7 mod 5000) ~value:i));
  let metrics =
    Cm_workload.Driver.run machine
      {
        Cm_workload.Driver.requesters;
        first_proc = node_procs;
        think = 0;
        warmup = horizon / 5;
        horizon;
      }
      (request table workload)
  in
  (machine, metrics)

let workloads = [ Points; Scans; Mixed ]

let jobs ~quick =
  List.concat_map
    (fun workload ->
      List.map (fun mode () -> Plan.digested (measure ~quick mode workload)) modes)
    workloads

let render results =
  Report.text (fun b ->
      Report.header b "Extension: distributed hash table across mechanisms";
      List.iter2
        (fun workload ms ->
          Printf.bprintf b "\n-- %s --\n" (workload_name workload);
          List.iter2
            (fun mode m ->
              Printf.bprintf b
                "   %-14s %8.3f ops/1000cyc  %8.2f words/10cyc  mean latency %6.0f\n"
                (Dht.mode_name mode) m.Cm_workload.Metrics.throughput
                m.Cm_workload.Metrics.bandwidth m.Cm_workload.Metrics.mean_latency)
            modes ms)
        workloads
        (Plan.chunk (List.length modes) results);
      Report.note b
        "Point operations: RPC and migration tie (isolated accesses cost two messages";
      Report.note b
        "either way); range scans: migration wins by chaining; the adaptive policy";
      Report.note b "tracks the better static choice on each workload.")

let plan ?(quick = false) () = Plan.make ~jobs:(jobs ~quick) ~render
