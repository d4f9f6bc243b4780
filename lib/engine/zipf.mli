(** Seeded Zipf(s) sampling over ranks [0, n) — the standard model for
    skewed key popularity (YCSB's "zipfian" distribution): rank [k] is
    drawn with probability proportional to [1/(k+1)^s].  [s = 0] is
    uniform; [s] near 1 concentrates a few percent of all traffic on the
    single hottest rank; [s > 1] is a hot-key regime where a handful of
    ranks dominate.

    The inverse-CDF table is precomputed once ([O(n)] floats), together
    with a guide table (Chen and Asau's cutpoint index): for
    [b = min 12 (ceil (log2 n))], entry [j] is the first rank whose CDF
    value is [>= j/2^b], so the guide holds at most [2^12 + 1] words
    (32 KiB, small enough to stay in a core's cache).
    Each draw takes one 53-bit uniform deviate [u] and uses its top [b]
    bits to pick a guide bucket; the answer lies between that entry and
    the next.  When the two are equal the draw returns that rank without
    reading the CDF.  Otherwise the next 16 bits interpolate a guess
    within the slice, one probe at the guess and one at its neighbour
    settle it or narrow the range to one side, and a binary search
    finishes the rest.  Because [u] and every [j/2^b] are exact in
    floating point and the CDF is non-decreasing, a draw returns the
    same rank as a binary search over the whole table (the first rank
    whose CDF value is [>= u]), so the stream of ranks is unchanged by
    the guide — deterministic for a given generator stream, like every
    other stochastic choice in the simulator.  A draw allocates
    nothing. *)

type t

val create : s:float -> n:int -> t
(** [create ~s ~n] precomputes the distribution over ranks [0, n).
    @raise Invalid_argument unless [n >= 1] and [s >= 0] (so a nan
    exponent is rejected). *)

val sample : t -> Rng.t -> int
(** [sample t rng] draws a rank: [sample_bits t (Rng.bits53 rng)]. *)

val sample_bits : t -> int -> int
(** [sample_bits t bits] is the rank that the 53-bit deviate [bits]
    (in [\[0, 2^53)], as {!Rng.bits53} and {!Rng.bits53_at} return)
    selects.  It lets a caller that can recompute its draws (e.g. with
    {!Rng.bits53_at}) sample without a stream, and store no ranks. *)

val mass : t -> int -> float
(** [mass t k] is rank [k]'s probability (e.g. the hottest key's traffic
    share, [mass t 0]). *)
