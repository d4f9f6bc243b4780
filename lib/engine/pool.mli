(** A fixed pool of OCaml 5 domains for running independent simulations
    in parallel.

    The pool exists to parallelize the experiment sweeps: every sweep
    point is an independent, deterministic, single-threaded simulation,
    so the only coordination needed is a work queue in and a result slot
    out.  Design rules that keep the parallel harness byte-identical to
    a sequential run:

    - Jobs must be {e pure} with respect to process-global state: they
      build their own machine, run it, and return a value.  They must
      not print (all report formatting happens on the submitting
      domain, in submission order).
    - Results are delivered through per-task slots, so completion order
      never affects observable output order: {!await} in submission
      order reads the results in submission order.
    - Each job runs under a fresh {!Check.Linear} token scope, so
      sanitizer state never crosses jobs or domains.  Anything else a
      job must report, such as the digests of the machines it ran,
      travels in its result.

    Workers block on a mutex/condition queue; an idle pool burns no
    CPU.  {!shutdown} drains the queue (already-submitted tasks still
    complete) and joins the domains. *)

type t

val create : domains:int -> t
(** [create ~domains] starts a pool of exactly [domains] worker domains
    ([invalid_arg] unless [domains >= 1]).  Remember that the main
    domain also exists: [domains] should normally be the [-j] value,
    the workers do all job execution and the main domain only submits,
    awaits and prints. *)

type 'a task
(** A submitted job: a slot that will hold the job's result (or the
    exception it raised). *)

val submit : t -> (unit -> 'a) -> 'a task
(** [submit pool job] enqueues [job] and returns its result slot.
    Raises [Invalid_argument] if the pool has been shut down. *)

val await : 'a task -> 'a
(** [await task] blocks until the job has run and returns its result —
    or re-raises, with the worker's backtrace, if the job raised. *)

val run_all : t -> (unit -> 'a) list -> 'a list
(** [run_all pool jobs] submits every job, then awaits them in order:
    the parallel equivalent of [List.map (fun f -> f ()) jobs], with
    results in list order regardless of completion order. *)

val shutdown : t -> unit
(** [shutdown pool] stops accepting new jobs, lets the workers drain
    the queue, and joins them.  Idempotent. *)
