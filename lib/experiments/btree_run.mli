(** B-tree experiment runs (paper §4.2).

    The paper's setup: a tree preloaded with 10 000 keys (nodes of at
    most [fanout] keys, placed uniformly at random over 48 processors)
    and 16 requester threads on separate processors issuing a mix of
    lookups and inserts with a fixed think time. *)

type config = {
  requesters : int;
  node_procs : int;
  n_keys : int;
  fanout : int;
  fill : float;
  lookup_fraction : float;  (** share of operations that are lookups *)
  key_space : int;  (** keys drawn uniformly from [\[0, key_space)] *)
  think : int;
  horizon : int;
  warmup : int;
  seed : int;
}

val default : config
(** The paper's fanout-100 setup: 10 000 keys, 48 node processors, 16
    requesters, 50% lookups, zero think time. *)

val run : Scheme.t -> config -> Cm_workload.Metrics.t
(** Build machine + tree for the scheme and drive the request mix. *)

val run_with_machine : Scheme.t -> config -> Cm_machine.Machine.t * Cm_workload.Metrics.t
(** Like {!run}, also returning the machine for post-run diagnostics
    ({!Cm_workload.Detail}). *)
