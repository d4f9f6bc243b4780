(* Table 4: B-tree bandwidth with a 10000-cycle think time. *)

let render ms =
  Report.print_header "Table 4: B-tree bandwidth, 10000-cycle think time";
  Report.print_table ~metric:"words/10cyc"
    (Btree_tables.rows ~paper:Btree_tables.paper_bandwidth_t4 ~metric:`Bandwidth
       (List.combine Btree_tables.think_schemes ms));
  Report.print_note
    "Paper shape: shared memory still uses several times the bandwidth of computation";
  Report.print_note "migration because it must keep caches coherent."

let plan ?(quick = false) () =
  Plan.sweep ~jobs:(Btree_tables.jobs ~quick ~think:10_000 Btree_tables.think_schemes) ~render
