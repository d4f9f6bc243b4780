(* Fault injection on the message transport.

   Every remote message in the simulator flows through
   Cm_machine.Transport (typed per-processor endpoints).  Besides the
   uniform send/receive pipelines, the transport can inject faults —
   drop, duplicate, or delay messages with per-kind probabilities —
   drawn from its own seeded generator, so a faulty run is exactly as
   reproducible as a clean one.

   This program posts a stream of "ping" messages across an 8-processor
   machine three times: clean, and twice under the same fault seed
   (same seed => identical fault decisions).  It then shows the
   delivery sanitizer catching a genuinely lost message: every
   non-dropped post must be delivered by the end of the run, and
   [Transport.check_all_delivered] raises when one is still in flight.

   Run with:  dune exec examples/faulty_net.exe
*)

open Cm_engine
open Cm_machine
open Thread.Infix

let n_msgs = 200

let flaky =
  { Transport.drop = 0.15; duplicate = 0.05; delay = 0.2; delay_cycles = 400 }

let run ~fault_seed () =
  let machine = Machine.create ~seed:42 ~n_procs:8 ~costs:Costs.software () in
  let tp = Machine.transport machine in
  let ping = Transport.kind tp "ping" in
  (* Per-processor deliveries, counted by each endpoint's handler. *)
  let handled = Array.make 8 0 in
  for p = 0 to 7 do
    Transport.Endpoint.register tp ~proc:p ~kind:ping (fun () ->
        handled.(p) <- handled.(p) + 1;
        Thread.compute 20)
  done;
  (match fault_seed with
  | Some seed -> Transport.configure_faults tp ~seed [ ("ping", flaky) ]
  | None -> ());
  Machine.spawn machine ~on:0
    (Thread.repeat n_msgs (fun i ->
         let* () = Transport.post tp ping ~dst:(1 + (i mod 7)) ~words:8 () in
         Thread.sleep 50));
  Machine.run machine;
  (* The delivery sanitizer: posted = delivered + dropped (duplicates
     accounted), or this raises Check.Violation.  Passing here even
     under faults is the point — drops are *recorded* losses. *)
  Transport.check_all_delivered tp;
  Printf.printf "  posted=%-4d delivered=%-4d dropped=%-3d handler ran %d times\n"
    (Transport.posted tp "ping") (Transport.delivered tp "ping") (Transport.dropped tp "ping")
    (Array.fold_left ( + ) 0 handled);
  Printf.printf "  per endpoint:";
  Array.iter (Printf.printf " %d") handled;
  print_newline ()

(* A message that never arrives: post it, then stop the clock before
   its wire latency elapses.  The sanitizer names the lost kind. *)
let lost_message () =
  let machine = Machine.create ~seed:42 ~n_procs:8 ~costs:Costs.software () in
  let tp = Machine.transport machine in
  let ping = Transport.kind tp "ping" in
  Transport.Endpoint.register_all tp ~kind:ping (fun () -> Thread.return ());
  Transport.signal_app tp ping ~src:0 ~dst:5 ~words:16 ignore ();
  Machine.run ~until:1 machine;
  match Transport.check_all_delivered tp with
  | () -> print_endline "  (unexpectedly clean)"
  | exception Check.Violation msg -> Printf.printf "  sanitizer fired: %s\n" msg

let () =
  Printf.printf "Posting %d messages, no faults:\n" n_msgs;
  run ~fault_seed:None ();
  Printf.printf "\nSame workload, faults armed (drop %.0f%%, duplicate %.0f%%, delay %.0f%%):\n"
    (100. *. flaky.drop) (100. *. flaky.duplicate) (100. *. flaky.delay);
  run ~fault_seed:(Some 7) ();
  Printf.printf "\nSame fault seed again - identical decisions:\n";
  run ~fault_seed:(Some 7) ();
  Printf.printf "\nStopping the clock with a message in flight:\n";
  lost_message ()
