(* SplitMix64 (Steele, Lea, Flood 2014), carried in two 32-bit limbs of
   native [int] instead of boxed [Int64].  The limb arithmetic below
   reproduces the 64-bit stream bit for bit — the regression suite holds
   it against a boxed-[Int64] reference — while a draw allocates
   nothing: boxed-[Int64] state cost ~7 minor words per [int] draw and
   ~17 per [Zipf] sample, which dominated the fused call path's per-op
   allocation budget (see [bench sites]).

   Limb conventions: a 64-bit quantity [z] is [(hi, lo)] with both limbs
   in [0, 2^32).  Native ints are 63-bit, so limb sums and 16x32 partial
   products fit exactly; full 32x32 products may wrap mod 2^63, which
   still preserves their low 32 bits (2^32 divides 2^63) — every such
   product flows into a [land 0xFFFFFFFF]. *)

type t = {
  mutable hi : int;  (* state, high 32 bits *)
  mutable lo : int;  (* state, low 32 bits *)
  mutable z_hi : int;  (* last output, high 32 bits *)
  mutable z_lo : int;  (* last output, low 32 bits *)
}

let mask32 = 0xFFFFFFFF

(* golden gamma 0x9E3779B97F4A7C15 *)
let gamma_hi = 0x9E3779B9

let gamma_lo = 0x7F4A7C15

let create ~seed = { hi = (seed asr 32) land mask32; lo = seed land mask32; z_hi = 0; z_lo = 0 }

(* Advance the state by gamma and leave [mix state] in [z_hi]/[z_lo].
   Straight-line tagged-int arithmetic: no allocation, no calls. *)
let step t =
  let s = t.lo + gamma_lo in
  let lo = s land mask32 in
  let hi = (t.hi + gamma_hi + (s lsr 32)) land mask32 in
  t.lo <- lo;
  t.hi <- hi;
  (* z ^= z >>> 30 *)
  let zlo = lo lxor (((lo lsr 30) lor (hi lsl 2)) land mask32) in
  let zhi = hi lxor (hi lsr 30) in
  (* z *= 0xBF58476D1CE4E5B9 *)
  let a0 = zlo land 0xFFFF and a1 = zlo lsr 16 in
  let m0 = a0 * 0xE5B9 in
  let m1 = (a1 * 0xE5B9) + (a0 * 0x1CE4) in
  let m2 = a1 * 0x1CE4 in
  let low = m0 + ((m1 land 0xFFFF) lsl 16) in
  let plo = low land mask32 in
  let phi =
    ((low lsr 32) + (m1 lsr 16) + m2 + (zlo * 0xBF58476D) + (zhi * 0x1CE4E5B9)) land mask32
  in
  (* z ^= z >>> 27 *)
  let zlo = plo lxor (((plo lsr 27) lor (phi lsl 5)) land mask32) in
  let zhi = phi lxor (phi lsr 27) in
  (* z *= 0x94D049BB133111EB *)
  let a0 = zlo land 0xFFFF and a1 = zlo lsr 16 in
  let m0 = a0 * 0x11EB in
  let m1 = (a1 * 0x11EB) + (a0 * 0x1331) in
  let m2 = a1 * 0x1331 in
  let low = m0 + ((m1 land 0xFFFF) lsl 16) in
  let plo = low land mask32 in
  let phi =
    ((low lsr 32) + (m1 lsr 16) + m2 + (zlo * 0x94D049BB) + (zhi * 0x133111EB)) land mask32
  in
  (* z ^= z >>> 31 *)
  t.z_lo <- plo lxor (((plo lsr 31) lor (phi lsl 1)) land mask32);
  t.z_hi <- phi lxor (phi lsr 31)

let int64 t =
  step t;
  Int64.logor (Int64.shift_left (Int64.of_int t.z_hi) 32) (Int64.of_int t.z_lo)

let split t =
  step t;
  { hi = t.z_hi; lo = t.z_lo; z_hi = 0; z_lo = 0 }

let split_into t dst =
  step t;
  dst.hi <- t.z_hi;
  dst.lo <- t.z_lo;
  dst.z_hi <- 0;
  dst.z_lo <- 0

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Take the high 62 bits (they fit a non-negative OCaml int) modulo the
     bound; the modulo bias is negligible for the bounds used in the
     simulator. *)
  step t;
  ((t.z_hi lsl 30) lor (t.z_lo lsr 2)) mod bound

let bits53 t =
  step t;
  (t.z_hi lsl 21) lor (t.z_lo lsr 11)

let float t bound = bound *. (float_of_int (bits53 t) /. 9007199254740992.0 (* 2^53 *))

let bool t =
  step t;
  t.z_lo land 1 = 1

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
