(* [guide.(j)] is the first rank whose CDF value is >= j/2^b (else
   n - 1), for j = 0..2^b: the Chen-Asau cutpoint index.  A draw's top b
   bits name the bucket [j/2^b, (j+1)/2^b) its deviate falls in, and the
   answer lies in [guide.(j), guide.(j+1)]; the next 16 bits place the
   deviate within that bucket, from which [sample] interpolates its
   first probe. *)
type t = { cdf : float array; guide : int array; shift : int (* 53 - b *) }

let create ~s ~n =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  (* Written so that nan fails too: it would build an all-nan CDF that
     returns rank 0 on every draw. *)
  if not (s >= 0.) then
    invalid_arg (Printf.sprintf "Zipf.create: exponent must be s >= 0, got %g" s);
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for k = 0 to n - 1 do
    acc := !acc +. (1. /. (float_of_int (k + 1) ** s));
    cdf.(k) <- !acc
  done;
  let total = !acc in
  for k = 0 to n - 1 do
    cdf.(k) <- cdf.(k) /. total
  done;
  (* b = min 12 (ceil (log2 n)): about one bucket per rank, capped at
     2^12 + 1 words (32 KiB).  Every draw reads the guide before the
     CDF, and a guide small enough to stay in a core's private cache
     saves a host-cache miss per draw where draws are scattered through
     a run.  A 2^16-bucket guide reads fewer CDF entries per draw but
     measured slower (DESIGN.md §18, "The guide's width"). *)
  let b = ref 0 in
  while !b < 12 && 1 lsl !b < n do
    incr b
  done;
  let b = !b in
  let buckets = 1 lsl b in
  let guide = Array.make (buckets + 1) 0 in
  let i = ref 0 in
  for j = 0 to buckets do
    (* j / 2^b is exact: j < 2^13 and the scale is a power of two. *)
    let threshold = Float.ldexp (float_of_int j) (-b) in
    while !i < n - 1 && cdf.(!i) < threshold do
      incr i
    done;
    guide.(j) <- !i
  done;
  { cdf; guide; shift = 53 - b }

(* The deviate arrives as an integer (53 bits, as {!Rng.bits53} draws
   them) and is converted here, so [u] lives and dies unboxed inside
   this frame, and the search runs in place (non-escaping refs compile
   to mutable locals): a sample allocates nothing.  [u] is bit-identical to [Rng.float rng 1.0].

   Exactness: with j = bits lsr shift, j/2^b <= u < (j+1)/2^b holds
   exactly (both sides are dyadic rationals that floats represent).  So
   the first rank in [0, n - 1] with cdf >= u (else n - 1) is at least
   guide.(j) and at most guide.(j+1): the answer is the first rank in
   [lo, hi) with cdf >= u, else hi.  An empty slice (lo = hi) is
   therefore the answer outright.  Otherwise the 16 bits below the
   bucket index place u within its bucket, and the guess g interpolates
   that position into [lo, hi); since g < hi and the CDF is
   non-decreasing, one probe at g and one at its neighbour either settle
   the answer or shrink the range to one side of g without losing it,
   and the binary search finishes what remains. *)
let sample_bits t bits =
  let j = bits lsr t.shift in
  let lo = ref t.guide.(j) and hi = ref t.guide.(j + 1) in
  if !lo < !hi then begin
    let u = float_of_int bits /. 9007199254740992.0 (* 2^53 *) in
    (* No overflow: (hi - lo) * 2^16 < 2^62 for any n below 2^46. *)
    let g = !lo + (((!hi - !lo) * ((bits lsr (t.shift - 16)) land 0xFFFF)) lsr 16) in
    if t.cdf.(g) < u then begin
      lo := g + 1;
      if !lo < !hi then if t.cdf.(!lo) < u then incr lo else hi := !lo
    end
    else begin
      hi := g;
      if g > !lo then if t.cdf.(g - 1) < u then lo := g else hi := g - 1
    end;
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
    done
  end;
  !lo

let[@inline] sample t rng = sample_bits t (Rng.bits53 rng)

let mass t k = if k = 0 then t.cdf.(0) else t.cdf.(k) -. t.cdf.(k - 1)
