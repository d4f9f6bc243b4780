open Cm_machine
open Cm_apps

type config = { requesters : int; think : int; horizon : int; warmup : int; seed : int }

let default = { requesters = 16; think = 0; horizon = 300_000; warmup = 20_000; seed = 42 }

let network_procs = 24

let run_with_machine scheme config =
  let machine =
    Machine.create ~seed:config.seed ~n_procs:(network_procs + config.requesters)
      ~costs:(Scheme.costs scheme) ()
  in
  let env = Sysenv.make machine in
  let cn = Counting_network.create env (Scheme.counting_mode scheme) in
  (* One traversal monad per input wire, built once: a ['a Thread.t] is a
     function of (ctx, k), so re-running it replays the traversal without
     rebuilding the invoke/scope closure chain per request. *)
  let w = Counting_network.width cn in
  let traversals =
    Array.init w (fun wire ->
        Cm_machine.Thread.ignore_m (Counting_network.traverse cn ~input_wire:wire))
  in
  let request i = traversals.(i mod w) in
  let metrics =
    Cm_workload.Driver.run machine
      {
        Cm_workload.Driver.requesters = config.requesters;
        first_proc = network_procs;
        think = config.think;
        warmup = config.warmup;
        horizon = config.horizon;
      }
      request
  in
  (machine, metrics)

let run scheme config = snd (run_with_machine scheme config)
