(* The four benchmark workloads, built from public library calls.

   Every workload is closed-loop: a fixed set of requester threads, each
   issuing its next request when the previous one completes.  Each puts
   most of its work in a different layer (see README.md for why each was
   chosen).  A workload is built in two timed steps — the machine, then
   the application (structures, preload) — and driven by
   [Cm_workload.Driver.run]; the harness times each step from outside. *)

open Cm_engine
open Cm_machine
open Cm_apps

(* Which runtime call path carries the workload's remote accesses; the
   attribution picks the matching per-call unit cost. *)
type path = Site | Generic | Msite

type app = {
  objects : int;  (* objects the application build created *)
  requests : int ref;  (* requests issued, counted by the request wrapper *)
  drive : unit -> Cm_workload.Metrics.t;
}

type t = {
  name : string;
  path : path;
  zipf_per_request : int;  (* Zipf draws per request *)
  rng_per_request : int;  (* uniform Rng.int draws per request *)
  machine : seed:int -> quick:bool -> Machine.t;
  app : seed:int -> quick:bool -> Machine.t -> app;
}

(* Wrap a per-requester loop body so the harness can count requests
   without touching the library: one closure per requester, built once. *)
let counted requests body =
 fun c k ->
  incr requests;
  body c k

let drive machine ~requesters ~first_proc ~warmup ~horizon request () =
  Cm_workload.Driver.run machine
    { Cm_workload.Driver.requesters; first_proc; think = 0; warmup; horizon }
    request

(* --- counting_cp: the fig2 headline row ---------------------------- *)

(* Event-rate bound, with a tiny working set and near-zero set-up: Sim
   and Network dominate.  The static [Runtime.site] path; no RPC. *)

let balancers = 24

let counting_requesters = 32

let counting =
  {
    name = "counting_cp";
    path = Site;
    zipf_per_request = 0;
    rng_per_request = 0;
    machine =
      (fun ~seed ~quick:_ ->
        Machine.create ~seed ~n_procs:(balancers + counting_requesters) ~costs:Costs.software ());
    app =
      (fun ~seed ~quick machine ->
        let env = Sysenv.make machine in
        let cn = Counting_network.create env (Counting_network.Messaging Cm_core.Prelude.Migrate) in
        let w = Counting_network.width cn in
        let traversals =
          Array.init w (fun wire ->
              Thread.ignore_m (Counting_network.traverse cn ~input_wire:wire))
        in
        (* The seed assigns requesters to input wires, the same number per
           wire; the traversals themselves draw no random numbers. *)
        let wires = Array.init counting_requesters (fun i -> i mod w) in
        Rng.shuffle (Rng.create ~seed) wires;
        let requests = ref 0 in
        {
          objects = Counting_network.n_balancers cn;
          requests;
          drive =
            drive machine ~requesters:counting_requesters ~first_proc:balancers ~warmup:10_000
              ~horizon:(if quick then 100_000 else 80_000_000)
              (fun i -> counted requests traversals.(wires.(i)));
        });
  }

(* --- btree_cp: the table1 row, generic call/scope path ------------- *)

(* The only workload on the generic [Runtime.call]/[scope] path, where
   continuations are CPS closures; inserts split nodes. *)

let btree_node_procs = 48

let btree_requesters = 16

let btree_keys = 10_000

let btree_key_space = 1_000_000

(* Distinct keys drawn from the key space, as the table1 runner draws
   them (seed + 7). *)
let btree_preload_keys ~seed =
  let rng = Rng.create ~seed:(seed + 7) in
  let seen = Hashtbl.create btree_keys in
  let rec draw acc n =
    if n = 0 then acc
    else
      let k = Rng.int rng btree_key_space in
      if Hashtbl.mem seen k then draw acc n
      else begin
        Hashtbl.add seen k ();
        draw (k :: acc) (n - 1)
      end
  in
  draw [] btree_keys

let btree =
  {
    name = "btree_cp";
    path = Generic;
    zipf_per_request = 0;
    rng_per_request = 2;
    machine =
      (fun ~seed ~quick:_ ->
        Machine.create ~seed ~n_procs:(btree_node_procs + btree_requesters)
          ~costs:Costs.software ());
    app =
      (fun ~seed ~quick machine ->
        let env = Sysenv.make machine in
        let tree =
          Btree.create env ~mode:(Btree.Messaging Cm_core.Prelude.Migrate) ~fanout:100 ~fill:0.7
            ~placement_seed:(seed + 13)
            ~node_procs:(Array.init btree_node_procs Fun.id)
            ~keys:(btree_preload_keys ~seed) ()
        in
        let request _i =
          let open Thread.Infix in
          let* r = Thread.rng in
          let key = Rng.int r btree_key_space in
          if Rng.float r 1.0 < 0.5 then Thread.ignore_m (Btree.lookup tree key)
          else Thread.ignore_m (Btree.insert tree key)
        in
        let requests = ref 0 in
        {
          objects = btree_keys;
          requests;
          drive =
            drive machine ~requesters:btree_requesters ~first_proc:btree_node_procs
              ~warmup:10_000
              ~horizon:(if quick then 100_000 else 360_000_000)
              (fun i -> counted requests (request i));
        });
  }

(* --- the two 1024-processor scale workloads ------------------------ *)

let scale_node_procs ~quick = if quick then 16 else 960

let scale_requesters ~quick = if quick then 8 else 64

let scale_machine ~seed ~quick =
  Machine.create ~seed
    ~n_procs:(scale_node_procs ~quick + scale_requesters ~quick)
    ~costs:Costs.software ()

(* A direct-style requester body with its result-dropping continuation
   cached per requester ([Cm_workload.Driver] passes the same [k] every
   iteration), as the library's own scale experiments do. *)
let dropping body =
  let drop = ref None in
  fun c k ->
    let dropk =
      match !drop with
      | Some (k0, f) when k0 == k -> f
      | _ ->
        let f _ = k () in
        drop := Some (k, f);
        f
    in
    body c k dropk

(* The only RPC workload: isolated accesses through the msite RPC arm
   and [Transport.call].  Its live heap grows with the horizon. *)
let dht =
  {
    name = "dht_zipf_rpc";
    path = Msite;
    zipf_per_request = 1;
    rng_per_request = 1;
    machine = scale_machine;
    app =
      (fun ~seed:_ ~quick machine ->
        let env = Sysenv.make machine in
        let keys = if quick then 20_000 else 1_000_000 in
        let table =
          Dht.create env
            ~buckets:(if quick then 1_024 else 65_536)
            ~bucket_capacity:64 ~mode:(Dht.Messaging Cm_core.Prelude.Rpc)
            ~node_procs:(Array.init (scale_node_procs ~quick) Fun.id)
            ()
        in
        for k = 0 to keys - 1 do
          Dht.preload table ~key:k ~value:k
        done;
        let zipf = Zipf.create ~s:1.3 ~n:keys in
        let requests = ref 0 in
        let request _i =
          counted requests
            (dropping (fun c k dropk ->
                 let r = Thread.Frame.rng c in
                 let key = Zipf.sample zipf r in
                 if Rng.int r 10 < 8 then Dht.get table key c dropk
                 else Dht.put table ~key ~value:key c k))
        in
        let horizon = if quick then 100_000 else 60_000_000 in
        {
          objects = keys;
          requests;
          drive =
            drive machine ~requesters:(scale_requesters ~quick)
              ~first_proc:(scale_node_procs ~quick) ~warmup:(horizon / 5) ~horizon request;
        });
  }

let walk_steps = 8

(* Chained msite migrations over a graph far larger than the host
   caches, behind a heavy set-up. *)
let social =
  {
    name = "social_walk_mig";
    path = Msite;
    zipf_per_request = 0;
    rng_per_request = 1 + walk_steps;
    machine = scale_machine;
    app =
      (fun ~seed ~quick machine ->
        let env = Sysenv.make machine in
        let users = if quick then 4_000 else 1_000_000 in
        let graph =
          Social_graph.create env ~n:users ~avg_degree:8
            ~node_procs:(Array.init (scale_node_procs ~quick) Fun.id)
            ~seed ()
        in
        let requests = ref 0 in
        let request _i =
          counted requests
            (dropping (fun c _k dropk ->
                 let u = Rng.int (Thread.Frame.rng c) users in
                 Social_graph.walk graph ~access:Cm_core.Prelude.Migrate ~start:u ~steps:walk_steps
                   c dropk))
        in
        let horizon = if quick then 100_000 else 12_000_000 in
        {
          objects = users;
          requests;
          drive =
            drive machine ~requesters:(scale_requesters ~quick)
              ~first_proc:(scale_node_procs ~quick) ~warmup:(horizon / 5) ~horizon request;
        });
  }

let all = [ counting; btree; dht; social ]

let find name = List.find_opt (fun w -> w.name = name) all
