(** The global object name space.

    Prelude is object-based: every data object has a global identifier and
    a home processor, and instance methods always execute at the object's
    home.  This module is the runtime's registry mapping identifiers to
    homes and payloads.  Translating a global identifier costs CPU cycles
    (the "Object ID translation" row of Table 5) unless the machine models
    J-Machine-style translation hardware; that cost is charged by the
    runtime's receive pipeline, not here. *)

open Cm_machine

type id = private int
(** A global object identifier. *)

type 'state t
(** A name space for objects whose local state has type ['state]. *)

val create : Machine.t -> 'state t
(** [create machine] is an empty name space for [machine]. *)

val register : 'state t -> home:int -> 'state -> id
(** [register t ~home state] allocates a fresh identifier for an object
    living on processor [home] with payload [state].  Identifiers are
    consecutive: the [k]-th registration into a space returns [k - 1],
    so [n] objects registered one after another, starting when
    [count t = b], get the ids [b] to [b + n - 1], and a caller may name
    them by offset from [b]. *)

val reserve : 'state t -> int -> unit
(** [reserve t n] makes room for [n] more objects, so the next [n]
    {!register} calls never grow the store.  When the store must grow,
    its capacity becomes exactly [count t + n]; when [n] objects
    already fit, nothing changes.  Identifiers and homes are not
    affected.
    @raise Invalid_argument if [n < 0]. *)

val home : 'state t -> id -> int
(** [home t i] is the object's home processor. *)

val state : 'state t -> id -> 'state
(** [state t i] is the object's payload.  The payload must only be
    mutated by code executing on the home processor — the runtime's
    calling conventions guarantee this for well-formed programs, and
    {!Runtime.invoke} checks it in debug builds. *)

val move : 'state t -> id -> to_:int -> unit
(** [move t i ~to_] rehomes the object (bookkeeping only — the caller is
    responsible for charging the transfer; see {!Objmig}).  Methods
    invoked afterwards execute at the new home. *)

val count : 'state t -> int
(** Number of registered objects. *)

val iter : (id -> int -> 'state -> unit) -> 'state t -> unit
(** [iter f t] applies [f id home state] to every object. *)

val id_of_int : int -> id
(** [id_of_int n] casts a raw integer (e.g. carried in a simulated
    message) back to an identifier. *)
