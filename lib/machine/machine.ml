open Cm_engine

(* One thread engine.  perfbench records its name in its environment
   block, so the name stays as a constant, like [default_shards]. *)
type engine = Frames

let default_engine () = Frames

let engine_name Frames = "frames"

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
  eng : Thread.engine;
  mutable next_tid : int;
  mutable transport_ : Transport.t option;
}

let create ?(seed = 42) ?(topology = `Mesh) ?(net_contention = false) ?(wheel_bits = 12) ~n_procs ~costs () =
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
  {
    sim;
    costs;
    topo;
    net;
    procs;
    stats;
    rng = Rng.create ~seed;
    eng = Thread.create_engine ();
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
      Transport.create ~sim:t.sim ~costs:t.costs ~net:t.net ~procs:t.procs
        ~spawn:(fun ~on body -> spawn t ~on body)
    in
    t.transport_ <- Some tr;
    tr

let now t = Sim.now t.sim

let events_fired t = Sim.events_fired t.sim

let run ?until t = Sim.run ?until t.sim

let digest_of_run ~clock ~fired ~stats =
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "clock=%d fired=%d" clock fired);
  List.iter
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf " %s=%d" name v))
    (Stats.counters stats);
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest t = digest_of_run ~clock:(now t) ~fired:(events_fired t) ~stats:t.stats
