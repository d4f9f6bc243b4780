(** Post-run machine diagnostics.

    Renders what a run did to the machine: processor utilizations (with
    the hottest processors called out — bottleneck hunting), network
    traffic broken down by message kind (how much was coherence vs RPC
    vs migration vs replication), cache behaviour, and the runtime's
    mechanism counters.  Used by `repro custom --detail` and handy in
    examples and debugging. *)

open Cm_machine

type t = {
  now : int;
  utilizations : (int * float) list;  (** processor id, busy fraction; hottest first *)
  traffic : (string * int * int) list;  (** kind, messages, words; heaviest first *)
  total_messages : int;
  total_words : int;
  cache_hits : int;
  cache_misses : int;
  counters : (string * int) list;  (** remaining interesting counters *)
  transport : (string * int) list;
      (** transport delivery accounting ([xport.<kind>.*], from the
          transport's own registry — see {!Transport.stats}) *)
}

val collect : Machine.t -> t
(** Snapshot the machine's counters (typically after {!Machine.run}). *)

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable report. *)
