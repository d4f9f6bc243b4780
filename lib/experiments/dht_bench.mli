(** Extension experiment (beyond the paper): the distributed hash table
    under every mechanism plus adaptive selection, on a point-operation
    workload, a range-scan workload, and a mix.

    The paper's §1 claim is that no mechanism wins everywhere and the
    programmer (or compiler) should choose per access; this experiment
    demonstrates the claim quantitatively and shows the §6 future-work
    adaptive policy tracking the best static choice on each workload. *)

val plan : ?quick:bool -> unit -> Plan.t
(** The experiment as a {!Plan}: one job per sweep point. *)
