(** Social-graph traversal at scale — chained vs. fan-out accesses over
    a Zipf-degree follower graph of 10^6 users on 1024 simulated
    processors (quick mode shrinks both).  See {!Cm_apps.Social_graph}. *)

type workload = Walk | Fof

val machine : quick:bool -> Cm_machine.Machine.t
(** A fresh machine sized for one sweep point. *)

val measure :
  quick:bool -> Cm_machine.Machine.t -> workload -> Cm_core.Prelude.access -> Cm_workload.Metrics.t
(** [measure ~quick machine workload access] runs one sweep point on
    [machine], a fresh {!machine}.  The caller owns the machine, so a
    job can digest it after the run without the digest entering this
    measured (allocation-pinned) run. *)

val plan : ?quick:bool -> unit -> Plan.t
