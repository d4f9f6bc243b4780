(* Table 2: B-tree network bandwidth (words / 10 cycles), zero think
   time, all nine schemes. *)

let render ms =
  Report.text (fun b ->
      Report.header b "Table 2: B-tree bandwidth, 0-cycle think time";
      Report.table b ~metric:"words/10cyc"
        (Btree_tables.rows ~paper:Btree_tables.paper_bandwidth_t2 ~metric:`Bandwidth
           (List.combine Btree_tables.all_schemes ms));
      Report.note b
        "Paper shape: shared memory consumes an order of magnitude more network bandwidth";
      Report.note b "than the messaging schemes; computation migration needs the least.")

let plan ?(quick = false) () =
  Plan.make ~jobs:(Btree_tables.jobs ~quick ~think:0 Btree_tables.all_schemes) ~render
