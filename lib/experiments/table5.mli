(** Table 5: the cycle-cost breakdown of one activation migration.

    The cost model's constants are calibrated against this table; the
    experiment additionally measures a real migration end-to-end in the
    assembled runtime and checks it equals the model's total. *)

val migration_machine : unit -> Cm_machine.Machine.t
(** The fresh 3x3-mesh machine the measured migration runs on. *)

val measure_one_migration : Cm_machine.Machine.t -> int
(** End-to-end cycles for one 32-byte activation migration over two mesh
    hops on [machine], a fresh {!migration_machine}, including the
    150-cycle method body.  The caller owns the machine, so a job can
    digest it without the digest entering this allocation-pinned run. *)

val plan : ?quick:bool -> unit -> Plan.t
(** The experiment as a {!Plan}: one job, the measured migration. *)
