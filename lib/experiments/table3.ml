(* Table 3: B-tree throughput with a 10000-cycle think time (light
   contention on the root): SM vs CP w/repl. (and w/HW). *)

let render ms =
  Report.text (fun b ->
      Report.header b "Table 3: B-tree throughput, 10000-cycle think time";
      Report.table b ~metric:"ops/1000cyc"
        (Btree_tables.rows ~paper:Btree_tables.paper_throughput_t3 ~metric:`Throughput
           (List.combine Btree_tables.think_schemes ms));
      Report.note b
        "Paper shape: with light root contention, CP w/repl.&HW and shared memory have";
      Report.note b "almost identical throughput.")

let plan ?(quick = false) () =
  Plan.make ~jobs:(Btree_tables.jobs ~quick ~think:10_000 Btree_tables.think_schemes) ~render
