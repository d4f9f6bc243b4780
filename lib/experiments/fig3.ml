(* Figure 3: counting-network bandwidth (words sent / 10 cycles) vs the
   number of requesters, for RPC, shared memory, and computation
   migration, at both think times.  Structured as a Plan, like fig2. *)

let schemes =
  [
    Scheme.Rpc { hw = false; repl = false };
    Scheme.Sm;
    Scheme.Cp { hw = false; repl = false };
  ]

let requester_counts ~quick = if quick then [ 8; 32; 64 ] else [ 8; 16; 32; 48; 64 ]

let thinks = [ 0; 10_000 ]

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
      (Scheme.name scheme, List.map (fun m -> m.Cm_workload.Metrics.bandwidth) ms))
    schemes
    (Plan.chunk (List.length (requester_counts ~quick)) results)

let render ~quick results =
  let xs = requester_counts ~quick in
  let per_think = List.length schemes * List.length xs in
  let think0, think10k =
    match Plan.chunk per_think results with
    | [ a; b ] -> (a, b)
    | _ -> invalid_arg "fig3: bad result shape"
  in
  Report.text (fun b ->
      Report.header b "Figure 3: counting-network bandwidth vs number of requesters";
      Printf.bprintf b "\n-- think time 0 cycles --\n";
      Report.series b ~x_label:"total processes" ~metric:"words sent/10 cycles" ~xs
        (series ~quick think0);
      Printf.bprintf b "\n-- think time 10000 cycles --\n";
      Report.series b ~x_label:"total processes" ~metric:"words sent/10 cycles" ~xs
        (series ~quick think10k);
      Report.note b
        "Paper shape: computation migration always needs the least bandwidth (about half";
      Report.note b
        "of RPC's); shared memory's coherence traffic dominates under high contention.")

let plan ?(quick = false) () = Plan.make ~jobs:(jobs ~quick) ~render:(render ~quick)
