(** The annotation-level programming interface — the paper's contribution
    as an API.

    Programs are written in a shared-memory style against objects with
    instance methods; {e where} a remote access executes is chosen by an
    annotation, not by restructuring the program:

    {[
      (* One balancer traversal step; [access] is the annotation. *)
      let step prelude ~access balancer =
        Prelude.invoke prelude ~access balancer (fun state ->
            let out = toggle state in
            Thread.return out)
    ]}

    Changing [~access] between {!Runtime.Rpc} and {!Runtime.Migrate}
    switches the remote-access mechanism without touching the program's
    logic — the property the paper argues makes tuning and porting
    practical (Section 3.1): the annotation affects performance, never
    semantics.  Instance methods always execute at the object's home
    processor; a local invocation costs only the locality check.

    {!proc} delimits a procedure activation for migration purposes: under
    [Migrate] annotations the activation hops from object to object and
    its result returns to the origin in a single message (or, for an
    activation at the base of its stack, is short-circuited to wherever
    the thread finishes). *)

open Cm_machine
open Cm_runtime

type t
(** A Prelude program instance on some machine. *)

type access = Runtime.access = Rpc | Migrate
(** The remote-access annotation. *)

val create : Machine.t -> t
(** [create machine] is a fresh instance. *)

val runtime : t -> Runtime.t

val space : t -> Obj.t Objspace.t
(** The instance's flat object store — for building
    {!Runtime.msite}-fused method tables over this instance's objects
    (an ['state obj] is a raw index into it). *)

(** {1 Objects} *)

type 'state obj = private int
(** An object with mutable local state of type ['state], living on a
    fixed home processor.  Objects are bare indices into the instance's
    flat object space: an ['state obj] is an immediate int, so arrays of
    objects are flat int vectors and object handles are free to copy
    into simulated messages.  The home and payload live in the store —
    look them up with {!obj_home} / {!obj_state}. *)

val make_obj : t -> home:int -> 'state -> 'state obj
(** [make_obj t ~home state] creates an object on processor [home]. *)

val obj_home : t -> 'state obj -> int
(** The object's home processor — one unboxed load from the instance's
    home table. *)

val obj_state : t -> 'state obj -> 'state
(** Direct access to the payload — for construction and tests only;
    simulated code must go through {!invoke}. *)

(** {1 Invocation} *)

val default_args_words : int
(** Message payload assumed for an invocation's arguments / migrated live
    variables when not specified: 8 words (32 bytes), the paper's Table 5
    calibration size. *)

val default_result_words : int
(** Reply payload when not specified: 2 words. *)

val invoke :
  t ->
  access:access ->
  ?args_words:int ->
  ?result_words:int ->
  'state obj ->
  ('state -> 'r Thread.t) ->
  'r Thread.t
(** [invoke t ~access o m] calls instance method [m] on object [o]; [m]
    executes on [o]'s home processor with the object's state in hand.
    Under [Migrate] the calling activation moves to the home and stays
    there after the call; under [Rpc] the caller blocks for the reply and
    stays put. *)

val proc : t -> ?at_base:bool -> ?result_words:int -> 'r Thread.t -> 'r Thread.t
(** [proc t body] runs [body] as one migratable procedure activation (see
    {!Runtime.scope}). *)
