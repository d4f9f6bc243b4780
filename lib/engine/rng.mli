(** Deterministic pseudo-random number generation.

    A small, fast, splittable generator (SplitMix64, computed in native
    64-bit arithmetic).  Every stochastic choice in the simulator draws
    from an explicitly seeded [Rng.t], so a whole experiment is a pure
    function of its configuration — reruns are bit-for-bit identical,
    which the regression tests rely on.  A draw through [int], [bits53],
    [bits53_at], [bool] or [split_into] allocates nothing. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] is a fresh generator.  Equal seeds yield equal streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each simulated thread its own stream so that adding a
    consumer does not perturb the draws seen by others. *)

val split_into : t -> t -> unit
(** [split_into t dst] reseeds [dst] in place as [split t] would seed a
    fresh generator, advancing [t] identically: afterwards [dst] draws
    exactly the stream [split t] would have returned.  Allocates
    nothing (a recycled thread context reuses its stream record). *)

val int64 : t -> int64
(** [int64 t] is the next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)].  The draw allocates
    nothing: [float] is inlined into its caller, where the result stays
    unboxed.  A build with [-opaque] cannot inline it across modules,
    and each call then boxes its result. *)

val bits53 : t -> int
(** [bits53 t] is the next output's top 53 bits as a non-negative [int]
    — the integer [float t] scales, exposed so per-op samplers (e.g.
    {!Zipf.sample}) can defer the float conversion to a context where it
    stays unboxed.  [float t b = b *. (float_of_int (bits53 t) /. 2^53)]
    draw for draw. *)

val bits53_at : seed:int -> int -> int
(** [bits53_at ~seed k] is the top 53 bits of output [k] (0-based) of
    [create ~seed]: what the [(k+1)]-th [bits53] call on a fresh
    [create ~seed] returns, computed directly from the counter rather
    than by stepping.  Since every draw ([int], [bits53], [float],
    [bool], [int64]) takes exactly one output, a stream that was drawn
    in a fixed order can be read back at any position.  Requires
    [k >= 0]; allocates nothing. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t a] permutes [a] in place, uniformly (Fisher-Yates). *)
