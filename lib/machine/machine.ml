open Cm_engine

type engine = Frames | Cps

(* The process-wide default, read by [create] when no explicit engine is
   given: atomic because the sweep harness runs machines across a domain
   pool, and the paired A/B bench mode flips it between interleaved
   repetitions. *)
let default_engine_cell : engine Atomic.t = Atomic.make Frames (* lint: allow global-state — cross-domain engine default, vetted *)

let set_default_engine e = Atomic.set default_engine_cell e

let default_engine () = Atomic.get default_engine_cell

let engine_name = function Frames -> "frames" | Cps -> "cps"

(* Machines run on one scheduler.  perfbench records this in its
   environment block, so it stays as a constant. *)
let default_shards () = 1

type t = {
  sim : Sim.t;
  costs : Costs.t;
  topo : Topology.t;
  net : Network.t;
  procs : Processor.t array;
  stats : Stats.t;
  rng : Rng.t;
  engine : engine;
  eng : Thread.engine;
  mutable next_tid : int;
  mutable transport_ : Transport.t option;
}

let create ?(seed = 42) ?(topology = `Mesh) ?(net_contention = false) ?(wheel_bits = 12) ?engine
    ~n_procs ~costs () =
  if n_procs <= 0 then invalid_arg "Machine.create: n_procs must be positive";
  let stats = Stats.create () in
  let topo =
    match topology with
    | `Mesh -> Topology.mesh n_procs
    | `Torus -> Topology.torus n_procs
    | `Crossbar -> Topology.crossbar n_procs
  in
  (* Contended multi-hop sends routinely exceed the 256-cycle default wheel,
     spilling onto the overflow heap; 4096 one-cycle buckets keep nearly every
     machine event on the O(1) direct path.  Extraction order (and hence every
     digest) is wheel-size-invariant. *)
  let sim = Sim.create ~wheel_bits () in
  let net = Network.create ~contention:net_contention ~sim ~topo ~costs ~stats () in
  let procs =
    Array.init n_procs (fun id ->
        Processor.create ~sim ~stats ~scheduler_cost:costs.Costs.scheduler ~id)
  in
  let engine = match engine with Some e -> e | None -> default_engine () in
  let eng = match engine with Frames -> Thread.frames_engine () | Cps -> Thread.cps_engine () in
  {
    sim;
    costs;
    topo;
    net;
    procs;
    stats;
    rng = Rng.create ~seed;
    engine;
    eng;
    next_tid = 0;
    transport_ = None;
  }

let n_procs t = Array.length t.procs

let proc t i =
  if i < 0 || i >= Array.length t.procs then
    invalid_arg (Printf.sprintf "Machine.proc: %d out of range [0,%d)" i (Array.length t.procs));
  t.procs.(i)

let spawn t ~on ?on_exit body =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  Thread.spawn ~tid ~split:t.rng ?on_exit ~engine:t.eng (proc t on) body

let transport t =
  match t.transport_ with
  | Some tr -> tr
  | None ->
    let tr =
      Transport.create ~sim:t.sim ~costs:t.costs ~net:t.net ~procs:t.procs ~eng:t.eng
        ~spawn:(fun ~on body -> spawn t ~on body)
    in
    t.transport_ <- Some tr;
    tr

let now t = Sim.now t.sim

let events_fired t = Sim.events_fired t.sim

let run ?until t =
  Sim.run ?until t.sim;
  Check.Trail.record_run ~clock:(now t) ~fired:(events_fired t) ~stats:t.stats

let digest t = Check.Trail.digest_of_run ~clock:(now t) ~fired:(events_fired t) ~stats:t.stats
