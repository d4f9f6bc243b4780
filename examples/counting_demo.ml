(* The counting-network application (paper §4.1), runnable: 24 balancers
   on 24 processors, a handful of requester threads drawing shared
   counter values through the network under each mechanism.  Verifies
   the step property and that the values handed out form a gap-free
   range, then compares throughput and traffic.

   Run with:  dune exec examples/counting_demo.exe
*)

open Cm_machine
open Cm_apps
open Thread.Infix

let requesters = 16

let per_thread = 12

let run mode =
  let machine = Machine.create ~n_procs:(24 + requesters) ~costs:Costs.software () in
  let env = Sysenv.make machine in
  let network = Counting_network.create env mode in
  let finished = ref 0 in
  let values = ref [] in
  for r = 0 to requesters - 1 do
    Machine.spawn machine ~on:(24 + r)
      (let* () =
         Thread.repeat per_thread (fun _ ->
             let* v = Counting_network.traverse network ~input_wire:(r mod 8) in
             values := v :: !values;
             Thread.return ())
       in
       finished := max !finished (Machine.now machine);
       Thread.return ())
  done;
  Machine.run machine;
  let total = requesters * per_thread in
  let gap_free = List.sort compare !values = List.init total (fun i -> i) in
  Printf.printf "%-14s  %4d tokens in %6d cycles;  step property: %b;  values 0..%d: %b\n"
    (Counting_network.mode_name mode)
    (Counting_network.tokens_delivered network)
    !finished
    (Counting_network.satisfies_step_property network)
    (total - 1) gap_free;
  Printf.printf "%-14s  messages=%d words=%d\n\n" ""
    (Network.total_messages machine.Machine.net)
    (Network.total_words machine.Machine.net)

let () =
  Printf.printf
    "An 8-wide bitonic counting network (6 stages x 4 balancers on 24 processors).\n\
     %d threads each draw %d shared-counter values.  Whatever the mechanism, the\n\
     network must hand out exactly the values 0..%d with the step property on its\n\
     output wires.\n\n"
    requesters per_thread
    ((requesters * per_thread) - 1);
  run (Counting_network.Messaging Cm_core.Prelude.Rpc);
  run (Counting_network.Messaging Cm_core.Prelude.Migrate);
  run Counting_network.Shared_memory
