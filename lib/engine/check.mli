(** Runtime sanitizers for the simulation stack.

    [Check] is the dynamic half of the correctness tooling (the static
    half is [bin/lint.ml]).  It is a toggleable checking layer: when
    disabled (the default) every hook is a single flag test and the
    instrumented code paths are unchanged, so production runs pay
    nothing.  When enabled, subsystems verify their
    own invariants on every transition and raise {!Violation} at the
    first breach:

    - {!Cm_machine.Thread} checks continuation linearity (every
      resumption handed out of the thread layer fires at most once,
      and a dropped one stays outstanding; see {!Linear}),
    - {!Cm_memory.Shmem} validates the MSI directory after each
      coherence transaction,
    - {!Sim} checks event-time monotonicity as events fire,
    - {!Cm_memory.Lock} / [Rwlock] check lock discipline (release by
      holder only, reader-count sanity).

    Checker state is domain-safe: the on/off toggle is an atomic, and
    the {!Linear} token registry is domain-local, so machines running
    on different {!Pool} domains never share a cell.  Each pool job
    runs under a registry of its own ({!Linear.scoped}).  Run digests
    are not checker state: a run's digest is {!Cm_machine.Machine.digest},
    and an experiment's jobs return theirs as results. *)

exception Violation of string
(** Raised at the first invariant breach when checking is enabled. *)

val set_enabled : bool -> unit
(** [set_enabled b] turns all sanitizers on or off (off by default). *)

val enabled : unit -> bool
(** [enabled ()] is true when sanitizers are active.  Instrumented code
    guards any non-trivial checking work behind this test. *)

val failf : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [failf fmt ...] raises {!Violation} with the formatted message. *)

val require : bool -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** [require cond fmt ...] raises {!Violation} with the formatted
    message when [cond] is false; does nothing (and does not build the
    message) when it holds. *)

val reset : unit -> unit
(** [reset ()] clears the calling domain's {!Linear} tokens; call
    between independent runs. *)

(** {1 Continuation linearity} *)

(** One-shot tokens backing the continuation-linearity sanitizer.  A
    token is created when a continuation is captured and consumed when
    it resumes; consuming twice is a double-resume violation, and
    tokens still live after a run has drained are dropped
    continuations. *)
module Linear : sig
  type token

  val make : what:string -> token
  (** [make ~what] registers a live token labelled [what]. *)

  val use : token -> unit
  (** [use tok] consumes [tok]; raises {!Violation} on a second use. *)

  val outstanding : unit -> int
  (** Number of tokens created but never used (potential dropped
      continuations; legitimate when a run is horizon-stopped).
      Domain-local, like the registry itself. *)

  val outstanding_whats : unit -> string list
  (** Labels of the outstanding tokens, sorted. *)

  val scoped : (unit -> 'a) -> 'a
  (** [scoped f] runs [f] under a fresh registry and restores the
      caller's afterwards, so tokens a job drops cannot survive into the
      next job that {!Pool} schedules on the same domain. *)
end

val linear : what:string -> ('a -> 'b) -> 'a -> 'b
(** [linear ~what f] is [f] wrapped in a fresh {!Linear} token so that
    calling it twice raises {!Violation}.  When checking is disabled
    this is [f] itself — no allocation, no indirection. *)
