(** Spin locks in coherent shared memory.

    A test-and-test&set lock with bounded exponential backoff: acquisition
    first spins on a (locally cached) read of the lock word, attempting
    the atomic test&set only when the word is observed free.  This is the
    synchronization the shared-memory versions of the applications use for
    multi-line critical sections (a whole B-tree node); its coherence
    traffic under contention is part of the shared-memory bandwidth the
    paper measures.

    The backoff delay is randomized from the acquiring thread's own
    stream, so runs remain deterministic. *)

open Cm_machine

type t

val create : ?base_backoff:int -> ?max_backoff:int -> Shmem.t -> home:int -> t
(** [create mem ~home] allocates a lock word on [home]'s memory.
    [base_backoff] (default 64) and [max_backoff] (default 4096) bound
    the randomized exponential backoff between spin probes; high-traffic
    locks want large values (fewer probes, at some handoff latency). *)

val acquire : t -> unit Thread.t
(** [acquire l] blocks (spinning with backoff) until the lock is taken. *)

val release : t -> unit Thread.t
(** [release l] frees the lock.  Must be called by the holder. *)

val with_lock : t -> (unit -> 'a Thread.t) -> 'a Thread.t
(** [with_lock l body] acquires, runs [body ()], releases, and returns
    the body's result. *)

val holder_free : t -> bool
(** [holder_free l] is true when the lock word currently reads 0 (test
    helper; not simulated). *)
