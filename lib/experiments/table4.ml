(* Table 4: B-tree bandwidth with a 10000-cycle think time. *)

let render ms =
  Report.text (fun b ->
      Report.header b "Table 4: B-tree bandwidth, 10000-cycle think time";
      Report.table b ~metric:"words/10cyc"
        (Btree_tables.rows ~paper:Btree_tables.paper_bandwidth_t4 ~metric:`Bandwidth
           (List.combine Btree_tables.think_schemes ms));
      Report.note b
        "Paper shape: shared memory still uses several times the bandwidth of computation";
      Report.note b "migration because it must keep caches coherent.")

let plan ?(quick = false) () =
  Plan.make ~jobs:(Btree_tables.jobs ~quick ~think:10_000 Btree_tables.think_schemes) ~render
