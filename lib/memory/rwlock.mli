(** Reader-writer spin locks in coherent shared memory.

    A single lock word holds the reader count, or -1 while a writer is
    inside.  Every acquisition and release is an atomic read-modify-write
    — an exclusive ownership transfer of the lock's cache line — so even
    read-sharing costs one line transfer per reader, which is precisely
    the "data contention" a B-tree root suffers under shared memory:
    readers do not exclude one another, but their lock-word updates
    serialize on the line.

    Writers wait for a zero count; they can be starved by a dense reader
    stream (no writer priority — the simplification is noted in
    DESIGN.md). *)

open Cm_machine

type t

val create : Shmem.t -> home:int -> t
(** [create mem ~home] allocates the lock word on [home].  A refused
    acquisition retries after a jittered backoff of 64 cycles, doubling
    up to 2048. *)

val acquire_read : t -> unit Thread.t
(** Enter as a reader (concurrent readers allowed). *)

val release_read : t -> unit Thread.t
(** Leave the reader section. *)

val acquire_write : t -> unit Thread.t
(** Enter exclusively, waiting for readers and writers to drain. *)

val release_write : t -> unit Thread.t
(** Leave the writer section. *)

val with_read : t -> (unit -> 'a Thread.t) -> 'a Thread.t
(** [with_read l body] brackets [body ()] with reader entry/exit. *)

val with_write : t -> (unit -> 'a Thread.t) -> 'a Thread.t
(** [with_write l body] brackets [body ()] with writer entry/exit. *)

val free : t -> bool
(** Whether the lock word currently reads zero (test helper). *)
