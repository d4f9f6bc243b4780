(** The full simulated system an application runs on.

    Bundles the machine with both remote-access substrates: the
    message-passing runtime (for RPC and computation migration) and
    coherent shared memory (for the data-migration baseline).  Every
    application mode draws from the same machine, so throughput and
    bandwidth of the three mechanisms are measured on identical
    hardware. *)

open Cm_machine

type t = {
  machine : Machine.t;
  prelude : Cm_core.Prelude.t;
  shmem : Cm_memory.Shmem.t Lazy.t;
}

val make : Machine.t -> t
(** [make machine] attaches both substrates to [machine].  The
    shared-memory substrate (a cache per processor) is allocated on
    first use — message-passing modes never pay for it. *)

val mem : t -> Cm_memory.Shmem.t
(** The coherent shared memory, built on first call. *)

val runtime : t -> Cm_runtime.Runtime.t
(** The message-passing runtime underlying [prelude]. *)
