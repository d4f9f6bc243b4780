(** Shared machinery for Tables 1-4: scheme lists, the paper's published
    values, and the measurement/formatting helpers. *)

val all_schemes : Scheme.t list
(** The nine schemes of Tables 1/2, in the paper's row order. *)

val think_schemes : Scheme.t list
(** The three schemes of Tables 3/4. *)

val paper_throughput_t1 : Scheme.t -> float option
val paper_bandwidth_t2 : Scheme.t -> float option
val paper_throughput_t3 : Scheme.t -> float option
val paper_bandwidth_t4 : Scheme.t -> float option

val config : quick:bool -> think:int -> Btree_run.config
(** The experiment configuration (reduced horizon when [quick]). *)

val jobs : quick:bool -> think:int -> Scheme.t list -> Cm_workload.Metrics.t Plan.job list
(** One sweep-point job per scheme, in row order; pair the results back
    with the schemes ([List.combine]) to feed {!rows}. *)

val rows :
  paper:(Scheme.t -> float option) ->
  metric:[ `Throughput | `Bandwidth ] ->
  (Scheme.t * Cm_workload.Metrics.t) list ->
  Report.row list
