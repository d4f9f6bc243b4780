open Cm_engine
open Cm_machine
open Cm_apps
open Thread.Infix

type config = {
  requesters : int;
  node_procs : int;
  n_keys : int;
  fanout : int;
  fill : float;
  lookup_fraction : float;
  key_space : int;
  think : int;
  horizon : int;
  warmup : int;
  seed : int;
}

let default =
  {
    requesters = 16;
    node_procs = 48;
    n_keys = 10_000;
    fanout = 100;
    fill = 0.7;
    lookup_fraction = 0.5;
    key_space = 1_000_000;
    think = 0;
    horizon = 600_000;
    warmup = 50_000;
    seed = 42;
  }


let preload_keys config =
  (* Distinct keys drawn deterministically from the key space. *)
  let rng = Rng.create ~seed:(config.seed + 7) in
  let seen = Hashtbl.create config.n_keys in
  let rec draw acc n =
    if n = 0 then acc
    else begin
      let k = Rng.int rng config.key_space in
      if Hashtbl.mem seen k then draw acc n
      else begin
        Hashtbl.add seen k ();
        draw (k :: acc) (n - 1)
      end
    end
  in
  draw [] config.n_keys

let run_with_machine scheme config =
  let machine =
    Machine.create ~seed:config.seed ~n_procs:(config.node_procs + config.requesters)
      ~costs:(Scheme.costs scheme) ()
  in
  let env = Sysenv.make machine in
  let tree =
    Btree.create env ~mode:(Scheme.btree_mode scheme) ~fanout:config.fanout ~fill:config.fill
      ~replicate_root:(Scheme.replicated scheme)
      ~placement_seed:(config.seed + 13)
      ~node_procs:(Array.init config.node_procs (fun i -> i))
      ~keys:(preload_keys config) ()
  in
  let request _i =
    let* r = Thread.rng in
    let key = Rng.int r config.key_space in
    if Rng.float r 1.0 < config.lookup_fraction then Thread.ignore_m (Btree.lookup tree key)
    else Thread.ignore_m (Btree.insert tree key)
  in
  let metrics =
    Cm_workload.Driver.run machine
      {
        Cm_workload.Driver.requesters = config.requesters;
        first_proc = config.node_procs;
        think = config.think;
        warmup = config.warmup;
        horizon = config.horizon;
      }
      request
  in
  (machine, metrics)

let run scheme config = snd (run_with_machine scheme config)
