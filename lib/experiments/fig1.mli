(** Figure 1: the message-count model (§2.5) — simulator vs closed form. *)

val run_messaging : access:Cm_runtime.Runtime.access -> n:int -> m:int -> Cm_machine.Machine.t
(** The finished machine of one thread making [n] accesses to each of
    [m] remote items under the given mechanism.  Its network's message
    count is the measurement (model: RPC [2nm], migration [m+1]). *)

val run_shmem : n:int -> m:int -> Cm_machine.Machine.t
(** The same workload over coherent shared memory (model: [2m]). *)

val plan : ?quick:bool -> unit -> Plan.t
(** The experiment as a {!Plan}: one job per (n, m) cell. *)
