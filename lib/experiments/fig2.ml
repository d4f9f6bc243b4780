(* Figure 2: counting-network throughput (requests / 1000 cycles) as a
   function of the number of requester processes (8..64), under both
   think times (0 and 10 000 cycles), for the five schemes the paper
   plots: SM, CP w/HW, CP, RPC w/HW, RPC.

   The sweep is a Plan: every (scheme, requesters, think) cell is an
   independent job and [render] builds the report from the results in
   job order, so the cells can run on pool domains without perturbing
   the output. *)

let schemes =
  [
    Scheme.Sm;
    Scheme.Cp { hw = true; repl = false };
    Scheme.Cp { hw = false; repl = false };
    Scheme.Rpc { hw = true; repl = false };
    Scheme.Rpc { hw = false; repl = false };
  ]

let requester_counts ~quick = if quick then [ 8; 32; 64 ] else [ 8; 16; 32; 48; 64 ]

let thinks = [ 0; 10_000 ]

(* Jobs in think-major, then scheme-major, then requester order — the
   order [render] lays them out. *)
let jobs ~quick =
  let horizon = if quick then 150_000 else 400_000 in
  List.concat_map
    (fun think ->
      List.concat_map
        (fun scheme ->
          List.map
            (fun requesters () ->
              Plan.digested
                (Counting_run.run_with_machine scheme
                   { Counting_run.default with Counting_run.requesters; think; horizon }))
            (requester_counts ~quick))
        schemes)
    thinks

let series ~quick results =
  List.map2
    (fun scheme ms ->
      (Scheme.name scheme, List.map (fun m -> m.Cm_workload.Metrics.throughput) ms))
    schemes
    (Plan.chunk (List.length (requester_counts ~quick)) results)

let render ~quick results =
  let xs = requester_counts ~quick in
  let per_think = List.length schemes * List.length xs in
  let by_think = Plan.chunk per_think results in
  let think0, think10k =
    match by_think with [ a; b ] -> (a, b) | _ -> invalid_arg "fig2: bad result shape"
  in
  Report.text (fun b ->
      Report.header b "Figure 2: counting-network throughput vs number of requesters";
      Printf.bprintf b "\n-- think time 0 cycles (high contention) --\n";
      Report.series b ~x_label:"total processes" ~metric:"requests/1000 cycles" ~xs
        (series ~quick think0);
      Report.note b
        "Paper shape: SM and CP w/HW on top and close together, then CP, RPC w/HW, RPC.";
      Printf.bprintf b "\n-- think time 10000 cycles (lower contention) --\n";
      Report.series b ~x_label:"total processes" ~metric:"requests/1000 cycles" ~xs
        (series ~quick think10k);
      Report.note b
        "Paper shape: curves rise with offered load; SM slightly ahead of CP w/HW; RPC lowest.")

let plan ?(quick = false) () = Plan.make ~jobs:(jobs ~quick) ~render:(render ~quick)
