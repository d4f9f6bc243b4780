(** Zipf-skewed DHT traffic — the hot-key scenario at production scale.

    Sweeps mechanism (RPC / migration / adaptive) against key-popularity
    skew on a table preloaded with 10^6 keys across 1024 simulated
    processors (quick mode shrinks every axis).  Entries live in the
    flat int-pair buckets, so the million-entry table is one array per
    bucket and the preload bypasses simulated time. *)

val machine : quick:bool -> Cm_machine.Machine.t
(** A fresh machine sized for one sweep point. *)

val measure :
  quick:bool -> Cm_machine.Machine.t -> Cm_apps.Dht.mode -> float -> Cm_workload.Metrics.t
(** [measure ~quick machine mode skew] runs one sweep point on
    [machine], a fresh {!machine}.  The caller owns the machine, so a
    job can digest it after the run without the digest entering this
    measured (allocation-pinned) run. *)

val plan : ?quick:bool -> unit -> Plan.t
