open Cm_engine
open Cm_machine
open Cm_runtime
open Cm_core
open Thread.Infix

(* The graph is CSR: two flat int arrays hold every adjacency list, and
   each user is one index in the prelude's flat object space (payload =
   the user's own index), so a million-user graph is four int vectors —
   no per-user records anywhere.  Edge targets are Zipf-skewed toward
   low user ids: ids near 0 are the celebrities most walks pass
   through, scattered over the node processors by a multiplicative
   hash so hub load does not pile onto one corner of the mesh. *)
type t = {
  env : Sysenv.t;
  rt : Runtime.t;
  n : int;
  offsets : int array;  (* length n+1; user u's friends at [offsets.(u), offsets.(u+1)) *)
  edges : int array;
  objs : int Prelude.obj array;
  (* The visit method-sites (one per mechanism): every walk hop and
     fan-out visit is a [Runtime.msite] invocation — allocation-free
     steady state. *)
  visit_rpc : int Runtime.msite;
  visit_mig : int Runtime.msite;
}

(* CPU cost of one visit: touch the profile plus a few cycles per
   friend-list entry scanned. *)
let visit_work deg = 30 + (3 * deg)

(* Visit user [u]: the method runs at the user's home and charges the
   profile-scan cost; the result is the user's degree.  The frame body
   reads its operand (the user id) from the method-site registers; the
   RPC server stub is the same method as a monad. *)
let visit_frame_body offsets =
  let done_ c =
    let u = Runtime.msite_arg_a c in
    Runtime.msite_finish c (offsets.(u + 1) - offsets.(u))
  in
  fun c ->
    let u = Runtime.msite_arg_a c in
    Thread.Frame.hold_then c (visit_work (offsets.(u + 1) - offsets.(u))) done_

let visit_cps_body offsets ~obj:_ ~a:u ~b:_ =
  let* () = Thread.compute (visit_work (offsets.(u + 1) - offsets.(u))) in
  Thread.return (offsets.(u + 1) - offsets.(u))

let create env ~n ?(avg_degree = 8) ?(skew = 0.8) ~node_procs ~seed () =
  if n <= 0 then invalid_arg "Social_graph.create: n must be positive";
  if avg_degree < 1 then invalid_arg "Social_graph.create: avg_degree must be >= 1";
  if Array.length node_procs = 0 then invalid_arg "Social_graph.create: no node processors";
  let rng = Rng.create ~seed in
  let offsets = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u) + 1 + Rng.int rng ((2 * avg_degree) - 1)
  done;
  let edges = Array.make offsets.(n) 0 in
  let z = Zipf.create ~s:skew ~n in
  for e = 0 to offsets.(n) - 1 do
    edges.(e) <- Zipf.sample z rng
  done;
  let k = Array.length node_procs in
  let home_of u = node_procs.(abs (u * 2654435761) mod k) in
  let p = env.Sysenv.prelude in
  let objs = Array.init n (fun u -> Prelude.make_obj p ~home:(home_of u) u) in
  let rt = Sysenv.runtime env in
  let space = Prelude.space p in
  let mk access =
    Runtime.msite rt ~access ~space ~args_words:8 ~result_words:2
      ~frame_body:(visit_frame_body offsets) ~cps_body:(visit_cps_body offsets)
  in
  {
    env;
    rt;
    n;
    offsets;
    edges;
    objs;
    visit_rpc = mk Prelude.Rpc;
    visit_mig = mk Prelude.Migrate;
  }

let n_users t = t.n

let degree t u = t.offsets.(u + 1) - t.offsets.(u)

let friend t u j = t.edges.(t.offsets.(u) + j)

let home t u = Prelude.obj_home t.env.Sysenv.prelude t.objs.(u)

let visit_ms t ~access =
  match (access : Prelude.access) with Rpc -> t.visit_rpc | Migrate -> t.visit_mig

let visit t ~access cur c k =
  Runtime.msite_call (visit_ms t ~access) ~obj:(t.objs.(cur) :> int) ~a:cur ~b:0 c k

(* A [steps]-hop walk: visit the current user, then follow a uniformly
   chosen friend edge.  The next hop is drawn in the walking thread
   (from its own stream, before the visit is issued), so the walk's
   path is a function of the seed alone — identical under RPC and
   migration, which therefore traverse the same homes in the same
   order.  Chained remote accesses are migration's home turf: under
   [Migrate] the activation hops user-to-user and returns once; under
   [Rpc] every hop round-trips to the walker. *)
let walk t ~access ~start ~steps =
  if start < 0 || start >= t.n then invalid_arg "Social_graph.walk: bad start";
  (* Direct-style hop loop: the next edge is drawn (from the walking
     thread's stream) before each visit is issued, exactly as the
     monadic original did, so the path — and the digest — is the same;
     the only per-walk allocations are the scope and the two loop
     closures, shared by all [steps] hops. *)
  Runtime.scope t.rt ~result_words:2 (fun c k ->
      if steps <= 0 then k 0
      else begin
        let cur = ref start in
        let visited = ref 0 in
        let left = ref steps in
        let rec hop () =
          let u = !cur in
          let r = Thread.Frame.rng c in
          cur := friend t u (Rng.int r (degree t u));
          left := !left - 1;
          visit t ~access u c on_visit
        and on_visit d =
          visited := !visited + d;
          if !left > 0 then hop () else k !visited
        in
        hop ()
      end)

(* Friends-of-friends: visit [u], then visit its first [fanout] friends
   in order, summing their degrees — the two-hop neighbourhood scan
   behind "people you may know".  Each visit is its own procedure
   activation, so the result comes back to the requester between
   visits: isolated accesses, not a chain — under [Migrate] the
   activation hops out and returns every time, costing the same two
   messages as RPC's round trip. *)
let scoped_visit t ~access cur c k =
  Runtime.msite_scoped (visit_ms t ~access) ~obj:(t.objs.(cur) :> int) ~a:cur ~b:0 c k

let friends_of_friends t ~access ?(fanout = 8) u =
  if u < 0 || u >= t.n then invalid_arg "Social_graph.friends_of_friends: bad user";
  let scoped cur = scoped_visit t ~access cur in
  let* d = scoped u in
  let m = min d fanout in
  let acc = ref 0 in
  let* () =
    Thread.repeat m (fun j ->
        let* dv = scoped (friend t u j) in
        acc := !acc + dv;
        Thread.return ())
  in
  Thread.return !acc
