(** Table 5: the cycle-cost breakdown of one activation migration.

    The cost model's constants are calibrated against this table; the
    experiment additionally measures a real migration end-to-end in the
    assembled runtime and checks it equals the model's total. *)

val measure_one_migration : unit -> int
(** End-to-end cycles for one 32-byte activation migration over two mesh
    hops, including the 150-cycle method body. *)

val plan : ?quick:bool -> unit -> Plan.t
(** The experiment as a {!Plan} — sweep experiments expose their points
    as pool-schedulable jobs; bespoke ones stay serial. *)
