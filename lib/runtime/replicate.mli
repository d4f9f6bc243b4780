(** Software replication — the paper's WW90-style "multi-version memory".

    A replicated object has a master copy at its home processor and
    per-processor read-only replicas installed on demand.  Readers use
    their local replica without any communication; a processor without a
    replica fetches one with an RPC to the home (paying the usual stub
    costs on both CPUs).  An update runs at the home, bumps the version,
    and eagerly pushes the new value to every processor currently holding
    a replica — each push is a message whose payload is the object's size
    and whose installation costs receive-pipeline cycles on the holder's
    CPU.  Readers may therefore observe a slightly stale version, which is
    exactly the semantics multi-version memory permits (and what makes it
    safe for B-link-tree roots: a stale root is corrected by right-link
    chasing).

    The paper uses this for the B-tree root in the "w/repl." rows of
    Tables 1-4. *)

open Cm_machine

type 'a t

val create : Runtime.t -> home:int -> words_of:('a -> int) -> 'a -> 'a t
(** [create rt ~home ~words_of v] is a replicated object with master copy
    [v] at [home]; [words_of] sizes a value in message words. *)

val read : 'a t -> 'a Thread.t
(** [read r] is the local replica's value, installing a replica first
    (one RPC to the home) if this processor has none.  A read on the home
    processor uses the master directly. *)

val update : 'a t -> access:Runtime.access -> 'a -> unit Thread.t
(** [update r ~access v] installs [v] as the new master version and
    pushes it to every processor holding a replica when the update is
    issued (the master, version and holder snapshot change at issue).
    Both mechanisms run the same fan-out at the home: one send pipeline
    and one message per holder, in descending processor order.  [access]
    decides only how the fan-out reaches the home when the calling
    thread is remote: under [Rpc] the request carries a copy of the
    holder snapshot to a server thread and the caller resumes where it
    was; under [Migrate] the calling thread carries it and stays at the
    home afterwards. *)

val version : 'a t -> int
(** Number of updates applied so far. *)

val replicas : 'a t -> int
(** Number of processors currently holding a replica (excluding the
    master). *)

val peek : 'a t -> 'a
(** Current master value (not simulated; for tests). *)
