(** Measurement counters for a simulation run.

    A [Stats.t] is a registry of named integer counters (message counts,
    words sent, cache hits).  Each machine owns one; subsystems record
    into it and the harness reads it out at the end of the run. *)

type t
(** A registry of counters. *)

val create : unit -> t
(** [create ()] is an empty registry. *)

(** {1 Counters by name} *)

val incr : t -> string -> unit
(** [incr t name] adds 1 to counter [name]. *)

val add : t -> string -> int -> unit
(** [add t name n] adds [n] to counter [name]. *)

val get : t -> string -> int
(** [get t name] is the current value of counter [name], or 0 if it was
    never written. *)

(** {1 Handles}

    The operations above hash the name on every call.  Hot paths (one
    update per simulated message or memory access) resolve a handle once
    instead: {!Counter.incr}/{!Counter.add} are two field writes — no
    hashing, no allocation.

    A handle is the registry's cell for its name, shared by every lookup
    of that name through either API.  Resolving a handle does not make
    the name appear in {!counters}: a name is listed once it is first
    written (with any value, 0 included), exactly as if the cell were
    created by that write. *)

type counter
(** The cell of one named counter of one registry. *)

val counter : t -> string -> counter
(** [counter t name] is the cell of counter [name] of [t], created (but
    not listed) on the first lookup of [name]. *)

module Counter : sig
  val incr : counter -> unit
  (** [incr c] adds 1 — equivalent to {!val-incr} on the same name. *)

  val add : counter -> int -> unit
  (** [add c n] adds [n] — equivalent to {!val-add} on the same name. *)

  val get : counter -> int
  (** [get c] is the current value (0 if never written). *)

  val name : counter -> string
  (** The name the cell was created under. *)
end

(** {1 Inspection} *)

val counters : t -> (string * int) list
(** [counters t] is every written counter with its value, sorted by
    name. *)
