(** Table 2 of the paper's B-tree evaluation (see {!Btree_tables}). *)

val plan : ?quick:bool -> unit -> Plan.t
(** The experiment as a {!Plan}: one job per sweep point. *)
