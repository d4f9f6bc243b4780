(** §4.2's contention-relief experiment: the fanout-10 B-tree, where
    smaller nodes relieve the below-root bottleneck and computation
    migration with a replicated root closes to within ~20% of shared
    memory. *)

val plan : ?quick:bool -> unit -> Plan.t
(** The experiment as a {!Plan}: one job per sweep point. *)
