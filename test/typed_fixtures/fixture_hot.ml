(* Hot-path allocation fixtures.  test_analysis.ml runs the hot-alloc
   pass with a custom hot-set naming the four spin_* functions; the
   cold_* twin must stay unflagged even though it allocates
   identically. *)

(* closure allocated per call *)
let spin_closure n =
  let f x = x + n in
  f n

(* tuple allocated per call *)
let spin_pair a b = (a, b)

(* tuple of boxed floats *)
let spin_floats x = (x, x +. 1.0)

(* partial application: 2 of 3 arguments builds a closure per call *)
let spin_partial () = List.fold_left ( + ) 0

(* identical allocation outside the hot set: must NOT be flagged *)
let cold_pair a b = (a, b)

(* reading an existing closure out of state is a *full* application of a
   1-or-2-ary callee, even though the result type ends in an arrow: the
   pass must use the callee's runtime arity, not its type arity *)
type spin_slot = { mutable fn : int -> int }

let spin_slot = { fn = (fun x -> x) }
let spin_take () = spin_slot.fn
let spin_drive n = spin_take () n

let spin_cell : (int -> int) array = [| (fun x -> x + 1) |]
let spin_fn_read i = spin_cell.(i)

(* a ref the compiler keeps in a register (let-bound, used only through
   [!] and [:=], no closure captures it): not flagged *)
let spin_ref_local n =
  let r = ref 0 in
  for i = 1 to n do
    r := !r + i
  done;
  !r

(* a ref that escapes into a call is a heap cell per call: flagged *)
let spin_ref_escape n = Sys.opaque_identity (ref n)

(* a builder: its array and the two closures it returns are made once
   per construction and are not flagged; the tuple inside the returned
   closure is made per call and is *)
let spin_builder n =
  let table = [| n |] in
  let done_ x = table.(0) <- x in
  fun x ->
    done_ x;
    (x, n)
