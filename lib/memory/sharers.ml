(* A persistent set of processor ids drawn from a universe [0, n) fixed
   at creation time.

   Representation: for n <= small_limit the whole set is an immediate
   int bitmask (bit p = processor p) — adding or removing a sharer
   allocates nothing at all.  Above that, the set is a Bytes bitmap and
   updates copy it (copy-on-write keeps the persistent semantics the
   directory relies on: a sharer set captured for an invalidation round
   is not perturbed by the concurrent directory-state update).

   The two representations share one abstract type via the OCaml value
   encoding: an immediate (tagged int) is the mask, a pointer is the
   Bytes.  [Obj.is_int] discriminates — the same trick the runtime
   itself uses for int-or-block values.  This module is the only place
   allowed to look behind the abstraction; everything is covered by the
   ISet-equivalence qcheck property in test/test_memory.ml, including
   the small/big boundary. *)

type t = Obj.t

let small_limit = 62
(* Bits 0..61 of an immediate int; bit 62 is left unused so masks never
   go negative and bit arithmetic stays in the non-negative range. *)

let small (mask : int) : t = Obj.repr mask

let big (b : Bytes.t) : t = Obj.repr b

let mask_of (s : t) : int = Obj.obj s

let bytes_of (s : t) : Bytes.t = Obj.obj s

let is_small (s : t) = Obj.is_int s

let check_pid p = if p < 0 || p >= small_limit then invalid_arg "Sharers: pid out of range"

let empty ~n =
  if n <= 0 then invalid_arg "Sharers.empty: universe must be positive";
  if n <= small_limit then small 0 else big (Bytes.make ((n + 7) / 8) '\000')

let mem p s =
  if is_small s then begin
    check_pid p;
    mask_of s land (1 lsl p) <> 0
  end
  else Char.code (Bytes.get (bytes_of s) (p lsr 3)) land (1 lsl (p land 7)) <> 0

let add p s =
  if is_small s then begin
    check_pid p;
    small (mask_of s lor (1 lsl p))
  end
  else begin
    let b = Bytes.copy (bytes_of s) in
    Bytes.set b (p lsr 3)
      (Char.chr (Char.code (Bytes.get b (p lsr 3)) lor (1 lsl (p land 7))));
    big b
  end

let remove p s =
  if is_small s then begin
    check_pid p;
    small (mask_of s land lnot (1 lsl p))
  end
  else begin
    let b = Bytes.copy (bytes_of s) in
    Bytes.set b (p lsr 3)
      (Char.chr (Char.code (Bytes.get b (p lsr 3)) land lnot (1 lsl (p land 7))));
    big b
  end

let singleton ~n p = add p (empty ~n)

let is_empty s =
  if is_small s then mask_of s = 0
  else begin
    let b = bytes_of s in
    let rec go i = i >= Bytes.length b || (Bytes.get b i = '\000' && go (i + 1)) in
    go 0
  end

(* Iteration is in ascending pid order — the same order as
   [Set.Make(Int).iter] — so replacing the AVL sharer sets cannot
   reorder invalidation messages (and hence cannot move digests). *)
let iter f s =
  if is_small s then begin
    let rec go mask p =
      if mask <> 0 then begin
        if mask land 1 <> 0 then f p;
        go (mask lsr 1) (p + 1)
      end
    in
    go (mask_of s) 0
  end
  else begin
    let b = bytes_of s in
    for i = 0 to Bytes.length b - 1 do
      let byte = Char.code (Bytes.get b i) in
      if byte <> 0 then
        for bit = 0 to 7 do
          if byte land (1 lsl bit) <> 0 then f ((i lsl 3) lor bit)
        done
    done
  end

(* 256-entry popcount table, built once. *)
let popcount_byte =
  (* lint: allow domain-safety — write-once lookup table: fully initialized at module load, only read afterwards, so concurrent readers in any domain see frozen contents *)
  let tbl = Array.make 256 0 in
  for i = 1 to 255 do
    tbl.(i) <- tbl.(i lsr 1) + (i land 1)
  done;
  tbl

let cardinal s =
  if is_small s then begin
    let rec go mask acc = if mask = 0 then acc else go (mask lsr 8) (acc + popcount_byte.(mask land 0xff)) in
    go (mask_of s) 0
  end
  else begin
    let b = bytes_of s in
    let total = ref 0 in
    for i = 0 to Bytes.length b - 1 do
      total := !total + popcount_byte.(Char.code (Bytes.get b i))
    done;
    !total
  end

let to_list s =
  let acc = ref [] in
  iter (fun p -> acc := p :: !acc) s;
  List.rev !acc
