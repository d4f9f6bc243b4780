(** The distributed B-link tree under the message-passing runtime
    (RPC or computation migration).

    Every node is an object in the global name space; node methods
    (search step, leaf insert, separator insert) execute at the node's
    home processor, serialized by that processor's run queue — which is
    what makes node operations atomic, and what creates the paper's root
    bottleneck: under computation migration "an activation moves for
    every request to the processor containing the root".

    Concurrency control is Lehman-Yao moving-right over right-sibling
    links (Wang's simplified algorithm; no delete): a descent or a
    separator insertion that finds its key above a node's high key chases
    the right link.  Splits propagate upward along the descent path;
    a root split is serialized through the tree anchor object.

    With [replicate_root] the root's content is replicated per processor
    ({!Cm_runtime.Replicate}); descents read the local snapshot and jump
    straight to a level-2 node, removing the root processor from the
    lookup path (the paper's "w/repl." rows). *)

open Cm_machine
open Cm_core

type t

val create :
  Sysenv.t ->
  access:Prelude.access ->
  fanout:int ->
  replicate_root:bool ->
  plan:Btree_node.plan ->
  node_procs:int array ->
  placement_seed:int ->
  t
(** Materialize a bulk-load [plan]; nodes are placed uniformly at random
    over [node_procs] (new nodes created by splits too). *)

val lookup : t -> int -> bool Thread.t
(** [lookup t key] — membership.  Runs inside a requester thread; the
    result is delivered back at the requester's processor. *)

val insert : t -> int -> bool Thread.t
(** [insert t key] adds [key]; [false] if it was already present. *)

val height : t -> int
(** Current tree height (a lone leaf is 1). *)

val root_home : t -> int
(** The current root node's home processor. *)

val splits : t -> int
(** Number of node splits performed so far. *)

val all_keys : t -> int list
(** Keys in ascending order, by walking the leaf level (not
    simulated). *)

val check_invariants : t -> (unit, string) result
(** Structural invariants at quiescence: sorted keys, child coverage
    matching separators, consistent high keys and right links, leaf
    chain agreeing with the tree walk. *)
