(** Automatic mechanism selection — the paper's §6 future work
    ("we are developing compiler analysis techniques for automatically
    choosing among the remote access mechanisms"), realized as an online
    profile-guided policy.

    The decision follows the paper's own cost model (§2.5): migration
    beats RPC when the access is part of a {e chain} — when more annotated
    calls follow it inside the same procedure activation (either further
    hops or repeated accesses to the now-local data).  An isolated access
    (call, then straight back to the caller) costs two messages either
    way, and RPC avoids moving the activation.

    Each syntactic call site keeps an exponentially weighted estimate of
    how many annotated calls follow it within its activation, learned
    from completed activations.  A site migrates once its estimate
    reaches [threshold] (default 1.0); until [explore] samples have been
    seen it alternates both mechanisms to gather data.  All sampling is
    deterministic. *)

open Cm_machine

type t

val create : Runtime.t -> ?threshold:float -> ?explore:int -> unit -> t
(** [create rt ()] is an adaptive selector over [rt].  [threshold] is
    the follow-count above which a site migrates; [explore] (default 6)
    is the number of profiled activations per site before the policy
    locks in.  Raises [Invalid_argument] if [threshold] is nan or
    [explore] is negative. *)

type site

val site : t -> name:string -> site
(** [site t ~name] declares one syntactic call site (one annotation in
    the source program). *)

val scope :
  t -> ?at_base:bool -> ?result_words:int -> 'r Thread.t -> 'r Thread.t
(** Like {!Runtime.scope}, and additionally the unit of profiling: when
    the activation completes, every call it made is credited with the
    number of calls that followed it. *)

val decide : t -> site:site -> home:int -> Runtime.access Thread.t
(** [decide t ~site ~home] is the policy's per-call decision: it logs
    [site] in the running activation and picks the mechanism for an
    access to an object on [home] ([Rpc] when [home] is the current
    processor, where the access runs inline either way).  The caller
    then performs the access with the chosen mechanism — through
    {!Runtime.call}, or a method site built for it.  Must run inside
    {!scope}. *)

(** {1 Introspection} *)

val chosen_migrations : t -> int
(** Remote calls the policy sent by migration. *)

val chosen_rpcs : t -> int
(** Remote calls the policy sent by RPC. *)

val site_estimate : t -> site -> float
(** Current follow-count estimate for the site ([nan] before any
    sample). *)

val site_samples : t -> site -> int
(** Completed activations that have profiled this site. *)

val site_name : site -> string
