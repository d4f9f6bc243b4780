(* Table 5: the cycle-cost breakdown of migrating one activation (the
   counting network's 32-byte activation) from one processor to another.

   The cost model's per-category constants are calibrated against this
   table, so the model rows reproduce it by construction; what this
   experiment adds is a measurement: it performs one real migration in
   the assembled runtime and checks that the end-to-end latency equals
   the sum of the categories — i.e. that the runtime actually charges
   what the model says, with no hidden or double-counted cycles. *)

open Cm_machine
open Cm_runtime
open Cm_machine.Thread.Infix

let paper_cycles = function
  | "Total time" -> Some 651.
  | "User code" -> Some 150.
  | "Network transit" -> Some 17.
  | "Message overhead total" -> Some 484.
  | "Receiver total" -> Some 341.
  | "Copy packet (32 bytes)" -> Some 76.
  | "Thread creation" -> Some 66.
  | "Procedure linkage (recv)" -> Some 66.
  | "Unmarshaling" -> Some 51.
  | "Object ID translation" -> Some 36.
  | "Scheduler" -> Some 36.
  | "Forwarding check" -> Some 23.
  | "Allocate packet (recv)" -> Some 16.
  | "Sender total" -> Some 143.
  | "Procedure linkage (send)" -> Some 44.
  | "Allocate packet (send)" -> Some 35.
  | "Message send" -> Some 23.
  | "Marshaling" -> Some 22.
  | _ -> None

(* One real migration between two processors two mesh hops apart,
   timed end to end (from issuing the annotated call to the completion
   of the 150-cycle method at the destination). *)
let migration_machine () = Machine.create ~seed:1 ~n_procs:9 ~costs:Costs.software ()

let measure_one_migration machine =
  let rt = Runtime.create machine in
  let started = ref 0 and finished = ref 0 in
  Machine.spawn machine ~on:0
    (let* () = Thread.compute 1 in
     started := Machine.now machine;
     let* () =
       Runtime.call rt ~access:Runtime.Migrate ~home:2 (* two hops on the 3x3 mesh *)
         ~args_words:8 ~result_words:2 (Thread.compute 150)
     in
     finished := Machine.now machine;
     Thread.return ());
  Machine.run machine;
  !finished - !started

let job () =
  let machine = migration_machine () in
  Plan.digested (machine, measure_one_migration machine)

let render results =
  let measured =
    match results with [ m ] -> m | _ -> invalid_arg "table5: bad result shape"
  in
  let model = Costs.breakdown Costs.software ~words:8 ~hops:2 ~user_code:150 in
  let total = List.assoc "Total time" model in
  Report.text (fun b ->
      Report.header b "Table 5: cost breakdown of one activation migration (32-byte payload)";
      Printf.bprintf b "%-28s %8s %8s  %8s %8s\n" "category" "paper" "model" "paper %" "model %";
      List.iter
        (fun (label, cycles) ->
          let pct = 100. *. float_of_int cycles /. float_of_int total in
          match paper_cycles label with
          | Some p ->
            Printf.bprintf b "%-28s %8.0f %8d  %7.0f%% %7.1f%%\n" label p cycles
              (100. *. p /. 651.) pct
          | None -> Printf.bprintf b "%-28s %8s %8d  %8s %7.1f%%\n" label "-" cycles "-" pct)
        model;
      Printf.bprintf b
        "\nEnd-to-end migration measured in the simulator: %d cycles (model total %d)\n" measured
        total;
      Report.note b
        "The paper's sub-rows do not sum exactly to its subtotals (it calls the table";
      Report.note b
        "'fairly accurate'); our categories sum exactly, so totals differ by a few percent.";
      if measured <> total then
        Report.note b
          (Printf.sprintf "NOTE: measured differs from model by %d cycles" (measured - total)))

let plan ?quick:_ () = Plan.make ~jobs:[ job ] ~render
