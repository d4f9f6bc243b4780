open Cm_engine

type state = Shared | Modified

type slot = { mutable tag : int; mutable st : state; mutable data : int array }

type t = {
  slots : slot array;
  hits : Stats.counter;
  misses : Stats.counter;
}

let no_line = -1

let create ~n_slots ~stats =
  if n_slots <= 0 then invalid_arg "Cache.create: bad geometry";
  {
    slots = Array.init n_slots (fun _ -> { tag = no_line; st = Shared; data = [||] });
    (* The counters are listed in [stats] from the first recorded
       access, not from cache creation. *)
    hits = Stats.counter stats "cache.hits";
    misses = Stats.counter stats "cache.misses";
  }

let slot_of t line = t.slots.(line mod Array.length t.slots)

let lookup t ~line =
  let s = slot_of t line in
  if s.tag = line then Some (s.st, s.data) else None

let state t ~line =
  let s = slot_of t line in
  if s.tag = line then Some s.st else None

type evicted = { line : int; was_modified : bool; data : int array }

let insert t ~line ~state ~data =
  let s = slot_of t line in
  let evicted =
    if s.tag <> no_line && s.tag <> line then
      Some { line = s.tag; was_modified = s.st = Modified; data = s.data }
    else None
  in
  s.tag <- line;
  s.st <- state;
  (* Reuse the slot's array when it fits — one allocation saved per miss
     fill.  A modified victim's data escapes through [evicted] for
     write-back, so only then must the slot take a fresh copy. *)
  let must_preserve = match evicted with Some e -> e.was_modified | None -> false in
  if (not must_preserve) && Array.length s.data = Array.length data then
    Array.blit data 0 s.data 0 (Array.length data)
  else s.data <- Array.copy data;
  evicted

let set_state t ~line st =
  let s = slot_of t line in
  if s.tag <> line then invalid_arg "Cache.set_state: line not resident";
  s.st <- st

let invalidate t ~line =
  let s = slot_of t line in
  if s.tag = line then begin
    let dirty = if s.st = Modified then Some s.data else None in
    s.tag <- no_line;
    s.data <- [||];
    dirty
  end
  else None

let record_hit t = Stats.Counter.incr t.hits

let record_miss t = Stats.Counter.incr t.misses
