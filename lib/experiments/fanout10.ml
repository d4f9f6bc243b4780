(* Section 4.2's contention-relief experiment: with nodes of at most 10
   keys (instead of 100), the level below the root stops being a
   bottleneck and computation migration with a replicated root gets much
   closer to shared memory (paper: CP w/repl. 2.076 vs SM 2.427
   operations / 1000 cycles). *)

let paper = function
  | Scheme.Sm -> Some 2.427
  | Scheme.Cp { hw = false; repl = true } -> Some 2.076
  | Scheme.Rpc _ | Scheme.Cp _ -> None

let schemes = [ Scheme.Sm; Scheme.Cp { hw = false; repl = true } ]

let paper100 = function
  | Scheme.Sm -> Some 1.837
  | Scheme.Cp { hw = false; repl = true } -> Some 1.155
  | Scheme.Rpc _ | Scheme.Cp _ -> None

(* Jobs: the two schemes at fanout 10, then the same two at fanout 100
   for the contrast the paper draws. *)
let jobs ~quick =
  let config10 =
    let base = Btree_tables.config ~quick ~think:0 in
    { base with Btree_run.fanout = 10; fill = 0.75 }
  in
  let config100 = Btree_tables.config ~quick ~think:0 in
  let job config s () = Plan.digested (Btree_run.run_with_machine s config) in
  List.map (job config10) schemes @ List.map (job config100) schemes

let render results =
  let ms10, ms100 =
    match Plan.chunk (List.length schemes) results with
    | [ a; b ] -> (a, b)
    | _ -> invalid_arg "fanout10: bad result shape"
  in
  Report.text (fun b ->
      Report.header b "Fanout-10 B-tree: relieving the below-root bottleneck (S4.2)";
      Report.table b ~metric:"ops/1000cyc"
        (Btree_tables.rows ~paper ~metric:`Throughput (List.combine schemes ms10));
      Report.note b "For contrast, the same schemes at fanout 100:";
      Report.table b ~metric:"ops/1000cyc"
        (List.map2
           (fun s m ->
             {
               Report.label = Scheme.name s ^ " (fanout 100)";
               paper = paper100 s;
               measured = m.Cm_workload.Metrics.throughput;
             })
           schemes ms100);
      Report.note b
        "Paper shape: small nodes narrow the SM advantage (2.427 vs 2.076, i.e. ~1.17x,";
      Report.note b "down from ~1.6x at fanout 100).")

let plan ?(quick = false) () = Plan.make ~jobs:(jobs ~quick) ~render
