(* Table 1: B-tree throughput (operations / 1000 cycles), zero think
   time, all nine schemes. *)

let render ms =
  Report.print_header "Table 1: B-tree throughput, 0-cycle think time";
  Report.print_table ~metric:"ops/1000cyc"
    (Btree_tables.rows ~paper:Btree_tables.paper_throughput_t1 ~metric:`Throughput
       (List.combine Btree_tables.all_schemes ms));
  Report.print_note
    "Paper shape: SM first; CP beats RPC throughout; HW support and root replication";
  Report.print_note "each close part of the gap, and CP w/repl.&HW approaches SM."

let plan ?(quick = false) () =
  Plan.sweep ~jobs:(Btree_tables.jobs ~quick ~think:0 Btree_tables.all_schemes) ~render
