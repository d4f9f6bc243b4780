(** Figure 3: counting-network bandwidth (words/10 cycles) vs number of
    requesters, for RPC, shared memory and computation migration. *)

val plan : ?quick:bool -> unit -> Plan.t
(** The experiment as a {!Plan}: one job per sweep point. *)
