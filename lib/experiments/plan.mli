(** An experiment as a schedulable plan.

    Every experiment used to be an opaque [run] procedure that
    interleaved simulation and printing.  A plan splits it into the two
    halves the parallel harness needs:

    - [jobs]: the sweep points — pure, independent, deterministic
      simulations, each a [unit -> Metrics.t] closure that builds its
      own machine and returns its measurements without printing;
    - [render]: the presentation — takes the results {e in job order}
      and prints the tables/series on the calling domain.

    [execute] runs the jobs (inline, or on a {!Cm_engine.Pool} when one
    is given) and then renders.  Because jobs never print and results
    are rendered in submission order, the output is byte-identical at
    any [-j].

    Experiments whose structure is not a metrics sweep (fig1's message
    counts, table5's single migration, the ablations) stay [Serial]:
    one opaque procedure run on the calling domain. *)

type job = unit -> Cm_workload.Metrics.t
(** One sweep point.  Must not print and must not touch process-global
    mutable state: it may run on a pool domain. *)

type t =
  | Sweep of { jobs : job list; render : Cm_workload.Metrics.t list -> unit }
  | Serial of (unit -> unit)

val sweep : jobs:job list -> render:(Cm_workload.Metrics.t list -> unit) -> t

val serial : (unit -> unit) -> t

val execute : ?pool:Cm_engine.Pool.t -> t -> unit
(** [execute ?pool plan] runs the plan's jobs — in order on the calling
    domain when [pool] is absent, fanned out over the pool's domains
    when present — and then renders the results in job order.  [Serial]
    plans ignore the pool. *)

val chunk : int -> 'a list -> 'a list list
(** [chunk n xs] splits [xs] into consecutive chunks of [n] (the last
    may be shorter); a helper for renders that fold a flat job list
    back into sweep axes. *)
