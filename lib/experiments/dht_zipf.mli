(** Zipf-skewed DHT traffic — the hot-key scenario at production scale.

    Sweeps mechanism (RPC / migration / adaptive) against key-popularity
    skew on a table preloaded with 10^6 keys across 1024 simulated
    processors (quick mode shrinks every axis).  Entries live in the
    flat int-pair buckets, so the million-entry table is one array per
    bucket and the preload bypasses simulated time. *)

val measure : quick:bool -> Cm_apps.Dht.mode -> float -> Cm_workload.Metrics.t
(** [measure ~quick mode skew] runs one sweep point. *)

val plan : ?quick:bool -> unit -> Plan.t
