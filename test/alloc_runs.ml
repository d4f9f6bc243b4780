(* The runs whose allocation is pinned: [test_workload]'s "alloc" group
   holds them under ceilings, and [alloc_pins] prints their exact
   figures for the golden diff (test/alloc_pins.expected).

   Minor words one experiment run allocates: one warm run, then the
   [Gc.minor_words] delta of the next.  [Gc.minor_words] reads the
   allocation pointer, so even table5's single migration reads above 0;
   allocation is deterministic, so one measured run is exact.

   fig2/table1 run 32 requesters / zero think over a 60,000-cycle
   horizon with a 10,000-cycle warm-up (so start-up dominates); dht_zipf
   and social_graph run at their quick sizes. *)

open Cm_experiments

let minor_words_of_run run =
  ignore (run ());
  let before = Gc.minor_words () in
  ignore (run ());
  Gc.minor_words () -. before

let cp = Scheme.Cp { hw = false; repl = false }

let fig2 () =
  ignore
    (Counting_run.run cp
       { Counting_run.default with Counting_run.requesters = 32; horizon = 60_000; warmup = 10_000 })

let table1 () =
  ignore
    (Btree_run.run cp
       { Btree_run.default with Btree_run.think = 0; horizon = 60_000; warmup = 10_000 })

let dht_zipf () =
  ignore
    (Dht_zipf.measure ~quick:true (Dht_zipf.machine ~quick:true)
       (Cm_apps.Dht.Messaging Cm_core.Prelude.Rpc) 1.3)

let social_graph () =
  ignore
    (Social_bench.measure ~quick:true (Social_bench.machine ~quick:true) Social_bench.Walk
       Cm_core.Prelude.Migrate)

let table5 () = ignore (Table5.measure_one_migration (Table5.migration_machine ()))

(* (name, ceiling, run): the ceilings sit above the pinned figures by a
   wide margin; the golden diff is the exact check. *)
let ceilings =
  [
    ("fig2 counting", 1.0e5, fig2);
    ("table1 btree", 7.1e5, table1);
    ("dht_zipf hot keys", 3.5e5, dht_zipf);
    ("social_graph walks", 4.0e4, social_graph);
  ]

let pinned = List.map (fun (name, _, run) -> (name, run)) ceilings @ [ ("table5 migration", table5) ]
