(* Shared machinery for Tables 1-4: run the B-tree under a list of
   schemes and report measured throughput/bandwidth against the paper's
   published values. *)

let all_schemes =
  [
    Scheme.Sm;
    Scheme.Rpc { hw = false; repl = false };
    Scheme.Rpc { hw = true; repl = false };
    Scheme.Rpc { hw = false; repl = true };
    Scheme.Rpc { hw = true; repl = true };
    Scheme.Cp { hw = false; repl = false };
    Scheme.Cp { hw = true; repl = false };
    Scheme.Cp { hw = false; repl = true };
    Scheme.Cp { hw = true; repl = true };
  ]

let think_schemes =
  [ Scheme.Sm; Scheme.Cp { hw = false; repl = true }; Scheme.Cp { hw = true; repl = true } ]

(* Paper values, Table 1/2 (0-cycle think time). *)
let paper_throughput_t1 = function
  | Scheme.Sm -> Some 1.837
  | Scheme.Rpc { hw = false; repl = false } -> Some 0.3828
  | Scheme.Rpc { hw = true; repl = false } -> Some 0.5133
  | Scheme.Rpc { hw = false; repl = true } -> Some 0.6060
  | Scheme.Rpc { hw = true; repl = true } -> Some 0.7830
  | Scheme.Cp { hw = false; repl = false } -> Some 0.8018
  | Scheme.Cp { hw = true; repl = false } -> Some 0.9570
  | Scheme.Cp { hw = false; repl = true } -> Some 1.155
  | Scheme.Cp { hw = true; repl = true } -> Some 1.341

let paper_bandwidth_t2 = function
  | Scheme.Sm -> Some 75.
  | Scheme.Rpc { hw = false; repl = false } -> Some 7.3
  | Scheme.Rpc { hw = true; repl = false } -> Some 9.9
  | Scheme.Rpc { hw = false; repl = true } -> Some 7.0
  | Scheme.Rpc { hw = true; repl = true } -> Some 9.3
  | Scheme.Cp { hw = false; repl = false } -> Some 3.5
  | Scheme.Cp { hw = true; repl = false } -> Some 4.3
  | Scheme.Cp { hw = false; repl = true } -> Some 3.8
  | Scheme.Cp { hw = true; repl = true } -> Some 3.9

(* Paper values, Table 3/4 (10000-cycle think time). *)
let paper_throughput_t3 = function
  | Scheme.Sm -> Some 1.071
  | Scheme.Cp { hw = false; repl = true } -> Some 0.9816
  | Scheme.Cp { hw = true; repl = true } -> Some 1.053
  | Scheme.Rpc _ | Scheme.Cp _ -> None

let paper_bandwidth_t4 = function
  | Scheme.Sm -> Some 16.
  | Scheme.Cp { hw = false; repl = true } -> Some 2.5
  | Scheme.Cp { hw = true; repl = true } -> Some 2.7
  | Scheme.Rpc _ | Scheme.Cp _ -> None

let config ~quick ~think =
  let base = Btree_run.default in
  if quick then { base with Btree_run.think; horizon = 200_000; warmup = 20_000 }
  else { base with Btree_run.think; horizon = 800_000; warmup = 80_000 }

(* One job per scheme, in row order — submitted to the pool by the
   table plans rather than run inline. *)
let jobs ~quick ~think schemes =
  List.map
    (fun s () -> Plan.digested (Btree_run.run_with_machine s (config ~quick ~think)))
    schemes

let rows ~paper ~metric measurements =
  List.map
    (fun (s, m) ->
      {
        Report.label = Scheme.name s;
        paper = paper s;
        measured =
          (match metric with
          | `Throughput -> m.Cm_workload.Metrics.throughput
          | `Bandwidth -> m.Cm_workload.Metrics.bandwidth);
      })
    measurements
