open Cm_machine

type id = int

(* Struct-of-arrays object store.  The boxed per-object
   [{ mutable home; state }] records this replaces cost two words of
   header plus a pointer per object and put every [home] read behind a
   dependent load; at the million-object scale the ROADMAP targets, the
   home table *is* the runtime's hottest data.  Here homes live in one
   flat off-heap int vector (a [Bigarray], so the GC never scans or
   moves it) and payloads in one ordinary array — [home]/[move] are a
   single unboxed load/store, registration allocates nothing beyond
   amortized table growth, and the old representation's latent growth
   hazard ([Array.make cap shared_record] aliasing one mutable record
   across every spare slot) is gone by construction: a home is a word
   in a vector, not a field of a possibly-shared block.

   Payload slots are [Obj.t] behind the typed interface ([register] is
   the only writer, ['state] is pinned by the phantom parameter), which
   keeps one representation for every payload type — including float,
   which a ['state array] would silently specialize. *)
type homes = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type 'state t = {
  machine : Machine.t;
  mutable homes : homes;
  mutable payload : Obj.t array;
  mutable size : int;
}

let create machine =
  {
    machine;
    homes = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0;
    payload = [||];
    size = 0;
  }

(* The failure path is out of line so the bounds check compiled into the
   hot lookups is a compare and a never-taken branch — no format string,
   no closure, no allocation on the success path (enforced: these
   lookups are in cm-lint's declared hot set). *)
let[@inline never] unknown_id i = invalid_arg (Printf.sprintf "Objspace: unknown object %d" i)

let[@inline] check t i = if i < 0 || i >= t.size then unknown_id i

(* Reallocate both arrays at capacity [cap] (>= [t.size]), keeping
   every registered object. *)
let resize t cap =
  let homes = Bigarray.Array1.create Bigarray.int Bigarray.c_layout cap in
  for k = 0 to t.size - 1 do
    Bigarray.Array1.unsafe_set homes k (Bigarray.Array1.unsafe_get t.homes k)
  done;
  let payload = Array.make cap (Obj.repr 0) in
  Array.blit t.payload 0 payload 0 t.size;
  t.homes <- homes;
  t.payload <- payload

let grow t = resize t (max 16 (2 * Bigarray.Array1.dim t.homes))

(* Exactly [size + n] slots, so a caller that knows its object count
   registers them with no doubling and no outgrown arrays left for the
   GC: at 10^6 objects the payload array alone is 7.6 MiB, and the
   doublings' garbage counts in the peak heap. *)
let reserve t n =
  if n < 0 then invalid_arg "Objspace.reserve: negative count";
  if t.size + n > Bigarray.Array1.dim t.homes then resize t (t.size + n)

let register t ~home state =
  if home < 0 || home >= Machine.n_procs t.machine then
    invalid_arg "Objspace.register: bad home processor";
  if t.size = Bigarray.Array1.dim t.homes then grow t;
  let id = t.size in
  Bigarray.Array1.unsafe_set t.homes id home;
  Array.unsafe_set t.payload id (Obj.repr state);
  t.size <- t.size + 1;
  id

let[@inline] home t i =
  check t i;
  Bigarray.Array1.unsafe_get t.homes i

let[@inline] state t i =
  check t i;
  Obj.obj (Array.unsafe_get t.payload i)

let count t = t.size

let iter f t =
  for i = 0 to t.size - 1 do
    f i (Bigarray.Array1.unsafe_get t.homes i) (Obj.obj (Array.unsafe_get t.payload i))
  done

let move t i ~to_ =
  if to_ < 0 || to_ >= Machine.n_procs t.machine then invalid_arg "Objspace.move: bad home";
  check t i;
  Bigarray.Array1.unsafe_set t.homes i to_

let id_of_int n = n
