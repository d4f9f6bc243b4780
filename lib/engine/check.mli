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

    The {!Trail} submodule records a digest of each completed run
    (final clock, events fired, statistics) so [repro selfcheck] can
    prove same-seed determinism end to end.

    All checker state is domain-safe: the on/off toggles are atomics,
    and the mutable working state ({!Linear} token registry, {!Trail}
    digest list) is domain-local, so machines running on different
    {!Pool} domains never share a cell.  The [reset]/[trail] accessors
    operate on the calling domain's state; {!Pool.await} splices worker
    trail fragments back into the submitting domain. *)

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
(** [reset ()] clears all accumulated checker state ({!Linear} tokens
    and the {!Trail}); call between independent runs. *)

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
end

val linear : what:string -> ('a -> 'b) -> 'a -> 'b
(** [linear ~what f] is [f] wrapped in a fresh {!Linear} token so that
    calling it twice raises {!Violation}.  When checking is disabled
    this is [f] itself — no allocation, no indirection. *)

(** {1 Determinism trail} *)

(** Digests of completed simulation runs, fed by
    {!Cm_machine.Machine.run} while recording is on. *)
module Trail : sig
  val set_recording : bool -> unit
  (** [set_recording b] starts or stops appending run digests (off by
      default). *)

  val record_run : clock:int -> fired:int -> stats:Stats.t -> unit
  (** [record_run ~clock ~fired ~stats] appends a digest of the run's
      observable outcome; a no-op unless recording. *)

  val digest_of_run : clock:int -> fired:int -> stats:Stats.t -> string
  (** The digest itself (an MD5 hex string over the final clock, event
      count, and every written counter, name-sorted). *)

  val trail : unit -> string list
  (** All digests recorded so far on this domain, in run order. *)

  val append : string list -> unit
  (** [append fragment] appends captured digests (in order) to the
      calling domain's trail. *)
end

val capture_job : (unit -> 'a) -> 'a * string list
(** [capture_job f] runs [f] as one pool job: a fresh {!Linear} scope
    (tokens cannot leak between jobs sharing a worker domain) against
    an empty trail, returning what it recorded (in run order) for
    {!Pool.await} to splice back in submission order; the caller's
    trail is restored untouched. *)
