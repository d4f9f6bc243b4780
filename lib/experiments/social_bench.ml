(* lint: allow-file printf — report/presentation layer: printing tables to stdout
   is this module's purpose. *)
open Cm_engine
open Cm_machine
open Cm_apps

(* A million-user follower graph on 1024 processors (quick mode shrinks
   both): users are indices in the flat object space, adjacency is CSR.
   Walks chain accesses hop to hop — migration's best case — while
   friends-of-friends fans out from one user, which is RPC-friendly. *)
type size = { node_procs : int; requesters : int; users : int; horizon : int }

let size ~quick =
  if quick then { node_procs = 16; requesters = 8; users = 4_000; horizon = 120_000 }
  else { node_procs = 960; requesters = 64; users = 1_000_000; horizon = 400_000 }

let avg_degree = 8

let walk_steps = 8

type workload = Walk | Fof

let workload_name = function
  | Walk -> Printf.sprintf "%d-hop walks" walk_steps
  | Fof -> "friends-of-friends"

let accesses = [ Cm_core.Prelude.Rpc; Cm_core.Prelude.Migrate ]

let access_name = function Cm_core.Prelude.Rpc -> "rpc" | Cm_core.Prelude.Migrate -> "migrate"

(* Direct-style requester: the start user is drawn from the thread's
   stream, the traversal is a saturated application, and the
   result-dropping continuation is cached per requester (the driver
   passes the same [k] every iteration) — steady-state requests
   allocate nothing in the loop itself. *)
let request graph workload access _i =
  let drop = ref None in
  fun c k ->
    let dropk =
      match !drop with
      | Some (k0, f) when k0 == k -> f
      | _ ->
        let f (_ : int) = k () in
        drop := Some (k, f);
        f
    in
    let r = Thread.Frame.rng c in
    let u = Rng.int r (Social_graph.n_users graph) in
    match workload with
    | Walk -> Social_graph.walk graph ~access ~start:u ~steps:walk_steps c dropk
    | Fof -> Social_graph.friends_of_friends graph ~access u c dropk

let measure_with_machine ~quick workload access =
  let sz = size ~quick in
  let machine =
    Machine.create ~seed:42 ~n_procs:(sz.node_procs + sz.requesters) ~costs:Costs.software ()
  in
  let env = Sysenv.make machine in
  (* Built directly (not simulated): a million users register in real
     time, one flat-store index each. *)
  let graph =
    Social_graph.create env ~n:sz.users ~avg_degree
      ~node_procs:(Array.init sz.node_procs (fun i -> i))
      ~seed:7 ()
  in
  let metrics =
    Cm_workload.Driver.run machine
      {
        Cm_workload.Driver.requesters = sz.requesters;
        first_proc = sz.node_procs;
        think = 0;
        warmup = sz.horizon / 5;
        horizon = sz.horizon;
      }
      (request graph workload access)
  in
  (machine, metrics)

let measure ~quick workload access = snd (measure_with_machine ~quick workload access)

let workloads = [ Walk; Fof ]

let jobs ~quick =
  List.concat_map
    (fun workload -> List.map (fun access () -> measure ~quick workload access) accesses)
    workloads

let render ~quick results =
  let sz = size ~quick in
  Report.print_header "Extension: social-graph traversal at scale";
  Printf.printf "   %d users, avg degree %d, %d node procs, %d requesters\n" sz.users avg_degree
    sz.node_procs sz.requesters;
  List.iter2
    (fun workload ms ->
      Printf.printf "\n-- %s --\n" (workload_name workload);
      List.iter2
        (fun access m ->
          Printf.printf "   %-14s %8.3f ops/1000cyc  %8.2f words/10cyc  mean latency %6.0f\n"
            (access_name access) m.Cm_workload.Metrics.throughput
            m.Cm_workload.Metrics.bandwidth m.Cm_workload.Metrics.mean_latency)
        accesses ms)
    workloads
    (Plan.chunk (List.length accesses) results);
  Report.print_note
    "Walks chain remote accesses along friend edges, so migration's one message";
  Report.print_note
    "per hop beats RPC's round trips; friends-of-friends returns to the same";
  Report.print_note
    "requester between visits, which cancels migration's advantage — the paper's";
  Report.print_note "S1 claim (no mechanism wins everywhere) at graph scale."

let plan ?(quick = false) () = Plan.sweep ~jobs:(jobs ~quick) ~render:(render ~quick)

let run ?(quick = false) () = Plan.execute (plan ~quick ())
