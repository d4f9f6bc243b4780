(** The counting-network application (paper §4.1).

    An 8-wide bitonic counting network laid out one balancer per
    processor (24 processors for width 8), with an output counter on each
    exit wire co-located with the balancer feeding it.  A request enters
    on an input wire, toggles one balancer per layer, and fetch-and-adds
    the counter at its exit wire; the value returned is
    [count * width + wire] — a shared-counting value.

    Three execution modes:
    {ul
    {- [Messaging Rpc] — every balancer visit is an RPC to the balancer's
       processor (two messages per hop; the requester blocks).}
    {- [Messaging Migrate] — the request's activation migrates from
       balancer to balancer (one message per hop) and sends one result
       message back from the exit (the paper's computation-migration
       traversal).}
    {- [Shared_memory] — the requester stays home and toggles balancers
       through the coherence protocol, taking each balancer's spin lock;
       balancers are write-shared, so lines ping-pong between caches.}} *)

open Cm_machine

type sm_sync =
  | Atomic_toggle
      (** ablation: one atomic fetch-and-toggle per balancer visit *)
  | Lock_per_balancer
      (** test-and-test&set spin lock around the toggle (default; what
          the paper's throughput and bandwidth jointly imply) *)

type mode = Messaging of Cm_core.Prelude.access | Shared_memory

val mode_name : mode -> string
(** ["rpc"], ["migrate"] or ["shared_memory"]. *)

type t

val create : Sysenv.t -> ?sm_sync:sm_sync -> ?lock_backoff:int * int -> mode -> t
(** [create env mode] builds the paper's 8-wide bitonic network on
    [env], balancer [b] on processor [b mod n_procs] (requester threads
    should then live on processors 24 and up).  [lock_backoff] is the
    [(base, max)] spin backoff of the [Lock_per_balancer] locks. *)

val width : t -> int
val n_balancers : t -> int

val traverse : t -> input_wire:int -> int Thread.t
(** [traverse t ~input_wire] pushes one token through the network from
    [input_wire] and returns the counter value it obtained.  Runs inside
    a requester thread; under [Messaging Migrate] the activation returns
    to the requester's processor when done.  The value is returned
    only: a caller checking that counting is gap-free and
    duplicate-free collects the values itself. *)

val tokens_delivered : t -> int
(** Total tokens that have exited. *)

val satisfies_step_property : t -> bool
(** Whether the current quiescent output counts satisfy the step
    property. *)
