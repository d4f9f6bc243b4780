(** Figure 2: counting-network throughput vs number of requesters, for
    the paper's five schemes at both think times. *)

val plan : ?quick:bool -> unit -> Plan.t
(** The experiment as a {!Plan}: one job per sweep point. *)
