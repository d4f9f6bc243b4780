(* The pre-PR-8 boxed [Objspace] — one mutable record per object —
   kept verbatim as the reference implementation for the flat store's
   qcheck equivalence oracle.  Note the growth path's latent aliasing
   hazard this code always had: [Array.make cap { home; state }] fills
   every spare slot with ONE shared mutable record (masked only because
   [register] overwrites a slot before it is ever exposed).  The flat
   store eliminates the hazard by construction; this copy preserves it
   faithfully. *)

open Cm_machine

type id = int

type 'state entry = { mutable home : int; state : 'state }

type 'state t = {
  machine : Machine.t;
  mutable entries : 'state entry array;
  mutable size : int;
}

let create machine = { machine; entries = [||]; size = 0 }

let register t ~home state =
  if home < 0 || home >= Machine.n_procs t.machine then
    invalid_arg "Objspace.register: bad home processor";
  if t.size = Array.length t.entries then begin
    let cap = max 16 (2 * Array.length t.entries) in
    let entries = Array.make cap { home; state } in
    Array.blit t.entries 0 entries 0 t.size;
    t.entries <- entries
  end;
  let id = t.size in
  t.entries.(id) <- { home; state };
  t.size <- t.size + 1;
  id

let entry t i =
  if i < 0 || i >= t.size then invalid_arg (Printf.sprintf "Objspace: unknown object %d" i);
  t.entries.(i)

let home t i = (entry t i).home

let state t i = (entry t i).state

let count t = t.size

let iter f t =
  for i = 0 to t.size - 1 do
    let e = t.entries.(i) in
    f i e.home e.state
  done

let move t i ~to_ =
  if to_ < 0 || to_ >= Machine.n_procs t.machine then invalid_arg "Objspace.move: bad home";
  (entry t i).home <- to_

let id_of_int n = n
