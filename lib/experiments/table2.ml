(* Table 2: B-tree network bandwidth (words / 10 cycles), zero think
   time, all nine schemes. *)

let render ms =
  Report.print_header "Table 2: B-tree bandwidth, 0-cycle think time";
  Report.print_table ~metric:"words/10cyc"
    (Btree_tables.rows ~paper:Btree_tables.paper_bandwidth_t2 ~metric:`Bandwidth
       (List.combine Btree_tables.all_schemes ms));
  Report.print_note
    "Paper shape: shared memory consumes an order of magnitude more network bandwidth";
  Report.print_note "than the messaging schemes; computation migration needs the least."

let plan ?(quick = false) () =
  Plan.sweep ~jobs:(Btree_tables.jobs ~quick ~think:0 Btree_tables.all_schemes) ~render
