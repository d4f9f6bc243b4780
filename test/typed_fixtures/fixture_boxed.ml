(* Boxed-return fixtures.  test_analysis.ml runs the hot-alloc pass
   with a hot set naming every spin_* function here; cold_ratio is left
   out and must stay unflagged. *)

(* a float result is boxed at each call that is not inlined *)
let spin_ratio a b = float_of_int a /. float_of_int b

(* so is an int64 one, and [@inline never] forbids the inlining *)
let[@inline never] spin_mix x = Int64.mul (Int64.of_int x) 0x9E3779B97F4A7C15L

(* the abbreviation Int32.t is the same boxed type *)
let spin_word x : Int32.t = Int32.of_int x

let spin_native x = Nativeint.of_int x

(* inlined into each caller: the result stays unboxed there *)
let[@inline] spin_scaled x = float_of_int x *. 0.5

let[@inline always] spin_wide x = Int64.of_int x

let spin_fun = fun[@inline] x -> float_of_int x

(* an int result is immediate: nothing to box *)
let spin_count x = x + 1

(* identical result outside the hot set: must NOT be flagged *)
let cold_ratio a b = float_of_int a /. float_of_int b
