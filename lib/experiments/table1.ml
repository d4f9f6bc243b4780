(* Table 1: B-tree throughput (operations / 1000 cycles), zero think
   time, all nine schemes. *)

let render ms =
  Report.text (fun b ->
      Report.header b "Table 1: B-tree throughput, 0-cycle think time";
      Report.table b ~metric:"ops/1000cyc"
        (Btree_tables.rows ~paper:Btree_tables.paper_throughput_t1 ~metric:`Throughput
           (List.combine Btree_tables.all_schemes ms));
      Report.note b
        "Paper shape: SM first; CP beats RPC throughout; HW support and root replication";
      Report.note b "each close part of the gap, and CP w/repl.&HW approaches SM.")

let plan ?(quick = false) () =
  Plan.make ~jobs:(Btree_tables.jobs ~quick ~think:0 Btree_tables.all_schemes) ~render
