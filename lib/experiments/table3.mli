(** Table 3 of the paper's B-tree evaluation (see {!Btree_tables}). *)

val plan : ?quick:bool -> unit -> Plan.t
(** The experiment as a {!Plan} — sweep experiments expose their points
    as pool-schedulable jobs; bespoke ones stay serial. *)
