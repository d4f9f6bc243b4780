(** Imperative binary min-heaps.

    The heap is polymorphic in its element type; the ordering is fixed at
    creation time by a [cmp] function ([cmp a b < 0] means [a] is extracted
    before [b]).  The simulator's event queue before the calendar queue;
    kept as the reference scheduler test_engine checks [Sim] against. *)

type 'a t
(** A mutable min-heap of elements of type ['a]. *)

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp]. *)

val length : 'a t -> int
(** [length h] is the number of elements currently in [h]. *)

val is_empty : 'a t -> bool
(** [is_empty h] is [length h = 0]. *)

val push : 'a t -> 'a -> unit
(** [push h x] inserts [x] into [h].  O(log n) amortized. *)

val peek : 'a t -> 'a option
(** [peek h] is the minimum element of [h], without removing it. *)

val pop : 'a t -> 'a option
(** [pop h] removes and returns the minimum element of [h].  O(log n). *)

val pop_exn : 'a t -> 'a
(** [pop_exn h] is like {!pop} but raises [Invalid_argument] on an empty
    heap. *)

val clear : 'a t -> unit
(** [clear h] removes every element from [h]. *)

val iter : ('a -> unit) -> 'a t -> unit
(** [iter f h] applies [f] to every element of [h] in unspecified order. *)

val to_sorted_list : 'a t -> 'a list
(** [to_sorted_list h] drains [h], returning its elements in ascending
    order.  The heap is empty afterwards. *)
