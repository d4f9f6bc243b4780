(* SplitMix64 (Steele, Lea, Flood 2014) in native 64-bit arithmetic.
   The 64-bit state is stored as two 32-bit limbs of native [int] (a
   mutable [int64] field would box on every store); [step] rebuilds it
   as a local [int64], advances it by gamma, writes the limbs back and
   mixes the output with [Int64] operations.  ocamlopt keeps let-bound
   [int64] locals unboxed, and [step] is inlined into each entry point,
   which slices its result to an [int] or [bool] there: a draw
   allocates nothing.  [float] is [@inline] as well, so its result stays
   unboxed in the caller; that needs cross-module inlining, which the
   repository's release build profile allows and [-opaque] forbids.
   The regression suite holds every entry point to
   a boxed-[Int64] reference and counts the minor words each one
   allocates. *)

type t = {
  mutable hi : int;  (* state, high 32 bits *)
  mutable lo : int;  (* state, low 32 bits *)
  spare0 : int;
  spare1 : int;
      (* Unused: they keep the block at four words, a size class the
         heap already has pools for.  A two-word block opens a pool of
         its own, which adds 32 KiB to a small run's peak heap. *)
}

let mask32 = 0xFFFFFFFF

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { hi = (seed asr 32) land mask32; lo = seed land mask32; spare0 = 0; spare1 = 0 }

let[@inline] set_state t s =
  t.hi <- Int64.to_int (Int64.shift_right_logical s 32);
  t.lo <- Int64.to_int s land mask32

(* The output function: the k-th output (0-based) of [create ~seed] is
   [mix (seed + (k+1) * gamma)]. *)
let[@inline] mix s =
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Advance the state by gamma and return [mix state]. *)
let[@inline] step t =
  let s =
    Int64.add
      (Int64.logor (Int64.shift_left (Int64.of_int t.hi) 32) (Int64.of_int t.lo))
      golden_gamma
  in
  set_state t s;
  mix s

let int64 t = step t

let split_into t dst = set_state dst (step t)

let split t =
  let child = create ~seed:0 in
  split_into t child;
  child

let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Take the high 62 bits (they fit a non-negative OCaml int) modulo the
     bound; the modulo bias is negligible for the bounds used in the
     simulator. *)
  Int64.to_int (Int64.shift_right_logical (step t) 2) mod bound

let bits53 t = Int64.to_int (Int64.shift_right_logical (step t) 11)

(* [create] stores [Int64.of_int seed] (the limbs are its two halves),
   and [k + 1] steps add [(k + 1) * gamma] modulo 2^64, which [Int64.mul]
   computes. *)
let[@inline] bits53_at ~seed k =
  let s = Int64.add (Int64.of_int seed) (Int64.mul (Int64.of_int (k + 1)) golden_gamma) in
  Int64.to_int (Int64.shift_right_logical (mix s) 11)

let[@inline] float t bound = bound *. (float_of_int (bits53 t) /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.to_int (step t) land 1 = 1

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
