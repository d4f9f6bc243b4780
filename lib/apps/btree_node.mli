(** Pure B-link-tree node arithmetic, shared by every execution mode.

    Conventions (Lehman-Yao style, as in Wang's distributed B-tree):
    {ul
    {- keys in a node are sorted and distinct; [nkeys] of them are live;}
    {- an {e internal} node with [nkeys] keys has exactly [nkeys]
       children: child [i] covers the key interval
       [(keys.(i-1), keys.(i)]] (with [keys.(-1) = -inf]);}
    {- every node has a [high] key — the largest key it can route or
       store ([max_int] for the rightmost node of a level) — and a right
       sibling link, enabling descents to recover from concurrent
       splits by "moving right";}
    {- a node that fills past [fanout] splits in half, the left half
       keeping the low keys.}}

    Also provides the bulk loader used to preconstruct the paper's
    10 000-key trees with a fixed fill factor, which reproduces the
    paper's tree shapes (e.g. a 3-child root for fanout 100), and the
    structural checks both execution modes run at quiescence. *)

val find_child_index : keys:int array -> nkeys:int -> key:int -> int
(** [find_child_index ~keys ~nkeys ~key] is the smallest [i] with
    [key <= keys.(i)].  Requires [key <= keys.(nkeys-1)]; raises
    [Invalid_argument] otherwise (callers must move right first). *)

val probes : nkeys:int -> int
(** Number of binary-search probes for a node of [nkeys] keys — used to
    charge search CPU time. *)

val member : keys:int array -> nkeys:int -> key:int -> bool
(** Sorted-array membership. *)

val insertion_point : keys:int array -> nkeys:int -> key:int -> int
(** Index at which [key] should be inserted to keep [keys] sorted
    (first index with [keys.(i) >= key], or [nkeys]). *)

val insert_at : keys:int array -> nkeys:int -> pos:int -> int -> unit
(** Shift [keys.(pos..nkeys-1)] right one slot and store the value at
    [pos].  The array must have room. *)

val split_point : nkeys:int -> int
(** How many entries the left half keeps when a node splits:
    [(nkeys + 1) / 2]. *)

(** {1 Inspection}

    Read through a [view] function, so the message-passing tree (nodes
    in an object space) and the shared-memory one (nodes in simulated
    memory) share one leaf walk and one invariant checker. *)

type view = {
  is_leaf : bool;
  nkeys : int;
  high : int;
  right : int;  (** right sibling's id, -1 = none *)
  keys : int array;  (** at least [nkeys] entries; the first [nkeys] are live *)
  children : int array;  (** child ids, parallel to [keys]; internal nodes only *)
}

val leaf_keys : root:int -> (int -> view) -> int list
(** [leaf_keys ~root view] is every key of the tree rooted at node
    [root], in leaf-chain order: down the leftmost spine, then along the
    right links. *)

val check : fanout:int -> root:int -> (int -> view) -> (unit, string) result
(** [check ~fanout ~root view] verifies the tree's structure: every
    node non-empty, sorted, at most [fanout] keys, its high key equal to
    its parent's separator and its keys above the left separator; an
    internal node's last key equal to its high key; consecutive
    children linked by right links; and the leaf chain ascending.
    [Error] names the first violation found. *)

(** {1 Bulk loading} *)

type plan =
  | Leaf of { keys : int array; high : int }
  | Node of { keys : int array; high : int; children : plan array }
      (** [keys.(i)] is child [i]'s high key; the rightmost child of the
          rightmost spine has [high = max_int]. *)

val build_plan : keys:int list -> fanout:int -> fill:float -> plan
(** [build_plan ~keys ~fanout ~fill] is a balanced B-link tree holding
    exactly the distinct keys of [keys], with nodes filled to about
    [fill * fanout] (clamped to [2 .. fanout]).  Raises
    [Invalid_argument] when [keys] is empty, [fanout < 4], or [fill] is
    not in (0, 1] (nan included). *)

val plan_height : plan -> int
(** Height: a lone leaf is 1. *)

val plan_nodes_at_level : plan -> int -> plan list
(** Nodes of the plan at [level] in left-to-right order (leaves are
    level 0). *)

val plan_keys : plan -> int list
(** All keys, ascending (concatenation of the leaves). *)

val plan_root_children : plan -> int
(** Child count of the root (0 for a lone leaf). *)
