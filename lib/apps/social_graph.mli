(** A social-graph traversal workload over the flat object space.

    [n] users, one contiguous block of ids in the prelude's object
    store, with CSR adjacency in two flat vectors of 32-bit entries — a
    million-user graph is its offsets and edge targets, no per-user
    records and no handle map.  Edge targets are Zipf-skewed so
    low-numbered users are celebrity hubs, as in real follower graphs.

    Two traversals exercise the mechanisms differently: {!walk} chains
    remote accesses hop to hop (computation migration's best case — the
    activation follows the edges and returns once), while
    {!friends_of_friends} fans out from one user (isolated accesses,
    where RPC's round trips are no worse).  Walk paths are drawn from
    the walking thread's seeded stream before each visit, so RPC and
    migration traverse identical paths. *)

open Cm_runtime
open Cm_machine

type t

val create :
  Sysenv.t ->
  n:int ->
  ?avg_degree:int ->
  ?skew:float ->
  node_procs:int array ->
  seed:int ->
  unit ->
  t
(** [create env ~n ~node_procs ~seed ()] builds the graph and registers
    its [n] users in the object space, homes scattered over
    [node_procs].  Degrees are uniform in [[1, 2*avg_degree)] (default
    average 8); edge targets follow Zipf([skew]) (default 0.8).  Every
    visit runs through the graph's {!Cm_runtime.Runtime.msite}
    method-sites — allocation-free steady state.
    @raise Invalid_argument if [n < 1], [avg_degree < 1], [node_procs]
    is empty, [n >= 2^31] or [n * (2 * avg_degree - 1) >= 2^31] (the
    largest possible edge count must fit 32 bits); the size checks come
    before anything is allocated. *)

val n_users : t -> int

val degree : t -> int -> int

val friend : t -> int -> int -> int
(** [friend t u j] is user [u]'s [j]-th friend. *)

val home : t -> int -> int
(** [home t u] is the processor user [u]'s object lives on. *)

val walk : t -> access:Runtime.access -> start:int -> steps:int -> int Thread.t
(** [walk t ~access ~start ~steps] visits [steps] users following
    random friend edges; returns the sum of visited degrees. *)

val friends_of_friends : t -> access:Runtime.access -> ?fanout:int -> int -> int Thread.t
(** [friends_of_friends t ~access u] visits [u] then its first [fanout]
    (default 8) friends; returns the sum of the friends' degrees. *)
