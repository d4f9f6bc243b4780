(** Extension experiment: the comparison the paper could not run.

    Section 4 of the paper: "We would like to compare our results to
    object migration, such as the mechanism in Emerald, but our group
    has not finished implementing object migration in Prelude yet."
    {!Cm_runtime.Objmig} finishes it; this experiment runs the
    comparison on three microworkloads — a pointer chase, a private hot
    object, and a write-shared object — reporting messages, words and
    completion time for computation migration, Emerald-style
    move-on-access object migration, and stationary (RPC-style) mobile
    calls. *)

val plan : ?quick:bool -> unit -> Plan.t
(** The experiment as a {!Plan}: one job per (scenario, policy) cell. *)
