open Cm_machine

type t = {
  machine : Machine.t;
  prelude : Cm_core.Prelude.t;
  shmem : Cm_memory.Shmem.t Lazy.t;
}

(* The coherent-memory substrate is built on first use: it allocates a
   cache per processor, which the message-passing modes (RPC,
   computation migration) never touch.  Construction has no observable
   side effect — its counters are listed only once written — so forcing
   it late is invisible to the statistics and the selfcheck digests. *)
let make machine =
  {
    machine;
    prelude = Cm_core.Prelude.create machine;
    shmem = lazy (Cm_memory.Shmem.create machine);
  }

let mem t = Lazy.force t.shmem

let runtime t = Cm_core.Prelude.runtime t.prelude
