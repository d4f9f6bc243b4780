(** Social-graph traversal at scale — chained vs. fan-out accesses over
    a Zipf-degree follower graph of 10^6 users on 1024 simulated
    processors (quick mode shrinks both).  See {!Cm_apps.Social_graph}. *)

type workload = Walk | Fof

val measure : quick:bool -> workload -> Cm_core.Prelude.access -> Cm_workload.Metrics.t
(** [measure ~quick workload access] runs one sweep point. *)

val measure_with_machine :
  quick:bool ->
  workload ->
  Cm_core.Prelude.access ->
  Cm_machine.Machine.t * Cm_workload.Metrics.t
(** [measure] exposing the machine — the bench harness's digest and
    event-count probes. *)

val plan : ?quick:bool -> unit -> Plan.t

val run : ?quick:bool -> unit -> unit
