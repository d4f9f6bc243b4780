(** An experiment as a schedulable plan: a list of jobs and a render.

    - [jobs]: pure, independent, deterministic simulations.  Each builds
      its own machines, runs them, and returns its result together with
      the {!Cm_machine.Machine.digest} of every machine it ran, in run
      order.  A result may be measurements or a piece of rendered text.
    - [render]: a pure function from the results, {e in job order}, to
      the experiment's report.

    [execute] runs the jobs (inline, or on a {!Cm_engine.Pool} when one
    is given) and returns the report and the digests.  Nothing prints
    and nothing is recorded on the side, so the report and the digests
    are byte-identical at any [-j]. *)

type 'r job = unit -> 'r * string list
(** One job: its result and the digests of the machines it ran.  Must
    not touch process-global mutable state: it may run on a pool
    domain. *)

type t

val make : jobs:'r job list -> render:('r list -> string) -> t

val digested : Cm_machine.Machine.t * 'r -> 'r * string list
(** [digested (machine, r)] is a one-machine job's return: [r] and the
    digest of the finished [machine]. *)

val execute : ?pool:Cm_engine.Pool.t -> t -> string * string list
(** [execute ?pool plan] runs the plan's jobs — in order on the calling
    domain when [pool] is absent, fanned out over the pool's domains
    when present — and returns [(report, digests)]: the render of the
    results and every job's digests, both in job order. *)

val chunk : int -> 'a list -> 'a list list
(** [chunk n xs] splits [xs] into consecutive chunks of [n] (the last
    may be shorter); a helper for renders that fold a flat job list
    back into sweep axes. *)
