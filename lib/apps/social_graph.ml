open Cm_engine
open Cm_machine
open Cm_runtime
open Cm_core
open Thread.Infix

(* The graph is CSR with its edge vector left implicit.  One flat
   vector of 32-bit little-endian offsets delimits every adjacency
   list, and the users are one contiguous block of the prelude's flat
   object space (user [u] is id [base + u], payload [u]), so a
   million-user graph is its offsets, its Zipf table and its seed — no
   per-user records, no handle map and no stored edges.  Edge targets
   are Zipf-skewed toward low user ids: ids near 0 are the celebrities
   most walks pass through, scattered over the node processors by a
   multiplicative hash so hub load does not pile onto one corner of the
   mesh.

   The generator draws the [n] degrees first and then one Zipf rank per
   edge, one output each, so edge [e] is the rank that output [n + e]
   of [Rng.create ~seed] selects.  [friend] recomputes it from that
   counter ({!Rng.bits53_at}) when a walk reads it: the same graph as
   drawing and storing every edge at set-up, bit for bit.

   Every offset is below 2^31 ([create] checks it), so 32 bits hold it
   and halve the vector next to ints.  It is [Bytes], on the OCaml heap
   like the rest of the graph: the benchmark's peak heap reads
   [Gc.top_heap_words], which off-heap storage would escape without
   saving any memory. *)
type t = {
  space : Obj.t Objspace.t;
  rt : Runtime.t;
  n : int;
  base : int;  (* id of user 0 *)
  offsets : Bytes.t;  (* n+1 entries; user u's friends at [offsets.(u), offsets.(u+1)) *)
  zipf : Zipf.t;  (* edge-target distribution over [0, n) *)
  seed : int;  (* edge e is [Zipf.sample_bits zipf (Rng.bits53_at ~seed (n + e))] *)
  (* The visit method-sites (one per mechanism): every walk hop and
     fan-out visit is a [Runtime.msite] invocation — allocation-free
     steady state. *)
  visit_rpc : int Runtime.msite;
  visit_mig : int Runtime.msite;
}

(* Entry [i] of a 32-bit vector.  The read returns the [int32] and the
   conversion sits in the caller, so once inlined the load never boxes;
   [@inline] is what keeps it so (cm-lint's boxed-return check holds it
   there). *)
let[@inline] get32 b i = Bytes.get_int32_le b (4 * i)

let[@inline] read b i = Int32.to_int (get32 b i)

let set32 b i v = Bytes.set_int32_le b (4 * i) (Int32.of_int v)

let[@inline] deg offsets u = read offsets (u + 1) - read offsets u

(* CPU cost of one visit: touch the profile plus a few cycles per
   friend-list entry scanned. *)
let visit_work deg = 30 + (3 * deg)

(* Visit user [u]: the method runs at the user's home and charges the
   profile-scan cost; the result is the user's degree.  The frame body
   reads its operand (the user id) from the method-site registers under
   either mechanism.  Its two closures are built once per graph, when
   [create] makes the method-sites; a visit allocates nothing. *)
let visit_frame_body offsets =
  let done_ c =
    let u = Runtime.msite_arg_a c in
    Runtime.msite_finish c (deg offsets u)
  in
  fun c ->
    let u = Runtime.msite_arg_a c in
    Thread.Frame.hold_then c (visit_work (deg offsets u)) done_

(* Offsets must fit 32 bits: every one is at most
   [n * (2 * avg_degree - 1)], the largest possible edge count. *)
let limit = 1 lsl 31

let create env ~n ?(avg_degree = 8) ?(skew = 0.8) ~node_procs ~seed () =
  if n <= 0 then invalid_arg "Social_graph.create: n must be positive";
  if avg_degree < 1 then invalid_arg "Social_graph.create: avg_degree must be >= 1";
  if Array.length node_procs = 0 then invalid_arg "Social_graph.create: no node processors";
  if n >= limit then invalid_arg "Social_graph.create: n must be below 2^31";
  (* n * (2 * avg_degree - 1) >= 2^31, without overflow for any avg_degree *)
  if avg_degree > (((limit - 1) / n) + 1) / 2 then
    invalid_arg "Social_graph.create: n * (2 * avg_degree - 1) must be below 2^31";
  let rng = Rng.create ~seed in
  let offsets = Bytes.create (4 * (n + 1)) in
  set32 offsets 0 0;
  let m = ref 0 in
  for u = 0 to n - 1 do
    m := !m + 1 + Rng.int rng ((2 * avg_degree) - 1);
    set32 offsets (u + 1) !m
  done;
  (* The users go into exactly reserved slots: the payload array is
     allocated once, at its final size, and leaves no outgrown copy for
     the peak heap to count. *)
  let k = Array.length node_procs in
  let p = env.Sysenv.prelude in
  let space = Prelude.space p in
  Objspace.reserve space n;
  let base = Objspace.count space in
  for u = 0 to n - 1 do
    ignore (Prelude.make_obj p ~home:node_procs.(abs (u * 2654435761) mod k) u : int Prelude.obj)
  done;
  let zipf = Zipf.create ~s:skew ~n in
  let rt = Sysenv.runtime env in
  let mk access =
    Runtime.msite rt ~access ~space ~args_words:8 ~result_words:2
      ~frame_body:(visit_frame_body offsets)
  in
  {
    space;
    rt;
    n;
    base;
    offsets;
    zipf;
    seed;
    visit_rpc = mk Prelude.Rpc;
    visit_mig = mk Prelude.Migrate;
  }

let n_users t = t.n

let degree t u = deg t.offsets u

let friend t u j =
  Zipf.sample_bits t.zipf (Rng.bits53_at ~seed:t.seed (t.n + read t.offsets u + j))

let home t u = Objspace.home t.space (Objspace.id_of_int (t.base + u))

let visit_ms t ~access =
  match (access : Prelude.access) with Rpc -> t.visit_rpc | Migrate -> t.visit_mig

let visit t ~access cur c k =
  Runtime.msite_call (visit_ms t ~access) ~obj:(t.base + cur) ~a:cur ~b:0 c k

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
  Runtime.msite_scoped (visit_ms t ~access) ~obj:(t.base + cur) ~a:cur ~b:0 c k

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
