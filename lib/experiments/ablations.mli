(** Ablations of the design choices DESIGN.md §7 calls out: short-circuit
    returns, conditional migration, root replication, the two
    hardware-support components, shared-memory synchronization choices,
    migration granularity, partial activation migration, and the
    link-contention network model. *)

val plan : ?quick:bool -> unit -> Plan.t
(** The experiment as a {!Plan}: one job per section. *)
