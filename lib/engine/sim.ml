(* The event queue is a calendar queue: a timing wheel of [nbuckets]
   one-cycle FIFO buckets covering [wheel_start, wheel_start + nbuckets),
   plus a binary min-heap "overflow rung" for events beyond that window.
   The wheel only ever holds events inside the window, so every event in
   bucket [time land bmask] has exactly that [time]; appending at the
   tail therefore keeps each bucket in [seq] order (seqs are assigned in
   scheduling order), and scanning buckets forward from [wheel_start]
   yields strict (time, seq) order — the same total order the previous
   specialized binary heap extracted, so every run is bit-identical.

   [wheel_start] advances only when an event is extracted, to that
   event's time; in between, user code observes [wheel_start <= clock],
   so a new event's bucket is always inside the window or beyond it (the
   overflow rung).  When the window moves, overflow events that fell
   inside it migrate to their buckets in (time, seq) heap order — before
   any later (higher-seq) schedule can target those buckets, which
   preserves the per-bucket FIFO invariant.

   An occupancy bitmap (one bit per bucket, 32 buckets per word) lets
   extraction skip runs of empty buckets a word at a time, so sparse
   schedules (many empty cycles between events) don't pay a per-cycle
   scan: the cost per extraction is O(occupied-bucket distance / 32).

   Events are pooled in one flat int array, [stride] words per slot
   (time, seq, handler id, argument, generation, liveness, FIFO link —
   the stride is 8 so a slot spans exactly one cache line), plus one
   closure array; freed slots go on a free list threaded through the
   link field and are recycled as events fire, so steady-state
   scheduling allocates nothing.  Keeping the queue's links and bucket
   heads as ints rather than pointers also means no [caml_modify] write
   barrier on any queue operation — the only barriered store left is
   the closure itself, and handler events ([post]) skip even that: they
   carry a pre-registered handler id plus an immediate-int argument.
   Timers are handler events too; cancellation ([timer]/[cancel])
   tombstones the slot in place (O(1));
   tombstones are swept out lazily during extraction.

   The slot accessors below use unchecked array reads/writes.  The
   indices are safe by construction: every slot travelling through the
   wheel, the overflow rung, or the free list came from [alloc], which
   only hands out slots below [pool_size], and [pool_size * stride]
   never exceeds the pool array's length; bucket indices are masked by
   [bmask] and the bitmap is sized to match. *)

type hid = int

type token = int

(* A token packs (slot, generation) into one immediate int. *)
let slot_bits = 24

let slot_mask = (1 lsl slot_bits) - 1

(* Packed per-slot field offsets in [evs]. *)
let stride_bits = 3

let stride = 1 lsl stride_bits

let f_time = 0

let f_seq = 1

let f_hid = 2 (* >= 0: handler-table index; -1: closure event *)

let f_arg = 3

let f_gen = 4 (* bumped on recycle; stale tokens miss *)

let f_live = 5 (* 1 live, 0 tombstoned/free *)

let f_next = 6 (* bucket FIFO / free-list link, -1 end *)

(* Slot 7 is spare: the stride stays 8 so a slot spans one cache line. *)

(* Shared "no closure" payload; physical identity marks a slot whose
   closure field needs no clearing (and no write barrier) on recycle. *)
let no_fn : unit -> unit = ignore

type t = {
  mutable clock : int;
  mutable fired : int;
  mutable pending : int;  (* live (un-fired, un-cancelled) events *)
  (* calendar wheel: bucket -> slot of first event, -1 when empty *)
  nbuckets : int;
  bmask : int;
  heads : int array;
  tails : int array;
  occ : int array;  (* occupancy bitmap, 32 buckets per word *)
  mutable wheel_start : int;
  mutable wheel_count : int;  (* entries in buckets, tombstones included *)
  (* overflow rung: slots ordered as a binary min-heap by (time, seq) *)
  mutable ovf : int array;
  mutable ovf_size : int;
  (* event pool *)
  mutable evs : int array;  (* packed slots, [stride] ints each *)
  mutable ev_fn : (unit -> unit) array;  (* payload when hid = -1, else [no_fn] *)
  mutable pool_size : int;
  mutable free : int;  (* free-list head slot, -1 when empty *)
  (* handler table *)
  mutable handlers : (int -> unit) array;
  mutable n_handlers : int;
  (* scheduling counter: numbers schedules in execution order, the
     tie-break among same-time events *)
  mutable next_seq : int;
}

let[@inline always] ev t s f = Array.unsafe_get t.evs ((s lsl stride_bits) + f)

let[@inline always] set_ev t s f v = Array.unsafe_set t.evs ((s lsl stride_bits) + f) v

exception Stop

(* 256 buckets: the wheel's three per-bucket arrays plus the bitmap stay
   ~6 KB — resident in L1 — while covering the short network/CPU delays
   that dominate every workload's schedule.  Rarer long delays (think
   times, warmup) ride the overflow rung, whose heap ops cost what the
   old all-heap queue paid for every event. *)
let default_wheel_bits = 8

let create ?(wheel_bits = default_wheel_bits) () =
  if wheel_bits < 1 || wheel_bits > 22 then
    invalid_arg "Sim.create: wheel_bits out of range [1,22]";
  let nbuckets = 1 lsl wheel_bits in
  {
    clock = 0;
    fired = 0;
    pending = 0;
    nbuckets;
    bmask = nbuckets - 1;
    heads = Array.make nbuckets (-1);
    tails = Array.make nbuckets (-1);
    occ = Array.make (max 1 (nbuckets lsr 5)) 0;
    wheel_start = 0;
    wheel_count = 0;
    ovf = [||];
    ovf_size = 0;
    evs = [||];
    ev_fn = [||];
    pool_size = 0;
    free = -1;
    handlers = [||];
    n_handlers = 0;
    next_seq = 0;
  }

let now t = t.clock

let pending t = t.pending

let events_fired t = t.fired

(* --- handler table -------------------------------------------------- *)

let nil_handler = -1

let handler t f =
  if t.n_handlers = Array.length t.handlers then begin
    let cap = max 8 (2 * Array.length t.handlers) in
    let hs = Array.make cap (fun (_ : int) -> ()) in
    Array.blit t.handlers 0 hs 0 t.n_handlers;
    t.handlers <- hs
  end;
  t.handlers.(t.n_handlers) <- f;
  t.n_handlers <- t.n_handlers + 1;
  t.n_handlers - 1

let handler_count t = t.n_handlers

(* --- event pool ----------------------------------------------------- *)

let grow_pool t =
  let cap = max 64 (2 * Array.length t.ev_fn) in
  let evs = Array.make (cap * stride) 0 in
  Array.blit t.evs 0 evs 0 (t.pool_size * stride);
  t.evs <- evs;
  let fns = Array.make cap no_fn in
  Array.blit t.ev_fn 0 fns 0 t.pool_size;
  t.ev_fn <- fns

let alloc t =
  let s = t.free in
  if s >= 0 then begin
    t.free <- ev t s f_next;
    s
  end
  else begin
    if t.pool_size = Array.length t.ev_fn then grow_pool t;
    if t.pool_size > slot_mask then failwith "Sim: event pool exceeds token capacity";
    let s = t.pool_size in
    t.pool_size <- s + 1;
    s
  end

let[@inline always] recycle t s =
  set_ev t s f_live 0;
  (* Drop the closure so fired actions don't linger reachable; handler
     events never stored one, so they skip the (barriered) store. *)
  if Array.unsafe_get t.ev_fn s != no_fn then Array.unsafe_set t.ev_fn s no_fn;
  (* Invalidate any outstanding cancellation token for this slot. *)
  set_ev t s f_gen (ev t s f_gen + 1);
  set_ev t s f_next t.free;
  t.free <- s

(* --- overflow rung: binary min-heap of slots by (time, seq) ---------- *)

let[@inline always] before t a b =
  let ta = ev t a f_time and tb = ev t b f_time in
  if ta <> tb then ta < tb else ev t a f_seq < ev t b f_seq

let ovf_grow t =
  let cap = max 16 (2 * Array.length t.ovf) in
  let ovf = Array.make cap (-1) in
  Array.blit t.ovf 0 ovf 0 t.ovf_size;
  t.ovf <- ovf

let rec ovf_sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t t.ovf.(i) t.ovf.(parent) then begin
      let tmp = t.ovf.(i) in
      t.ovf.(i) <- t.ovf.(parent);
      t.ovf.(parent) <- tmp;
      ovf_sift_up t parent
    end
  end

let rec ovf_sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = if left < t.ovf_size && before t t.ovf.(left) t.ovf.(i) then left else i in
  let smallest =
    if right < t.ovf_size && before t t.ovf.(right) t.ovf.(smallest) then right else smallest
  in
  if smallest <> i then begin
    let tmp = t.ovf.(i) in
    t.ovf.(i) <- t.ovf.(smallest);
    t.ovf.(smallest) <- tmp;
    ovf_sift_down t smallest
  end

let ovf_push t s =
  if t.ovf_size = Array.length t.ovf then ovf_grow t;
  t.ovf.(t.ovf_size) <- s;
  t.ovf_size <- t.ovf_size + 1;
  ovf_sift_up t (t.ovf_size - 1)

(* Precondition: t.ovf_size > 0. *)
let ovf_pop t =
  let min = t.ovf.(0) in
  t.ovf_size <- t.ovf_size - 1;
  if t.ovf_size > 0 then begin
    t.ovf.(0) <- t.ovf.(t.ovf_size);
    ovf_sift_down t 0
  end;
  t.ovf.(t.ovf_size) <- -1;
  min

(* --- calendar wheel ------------------------------------------------- *)

let[@inline always] push_bucket t s =
  let b = ev t s f_time land t.bmask in
  let tl = Array.unsafe_get t.tails b in
  if tl < 0 then begin
    Array.unsafe_set t.heads b s;
    let w = b lsr 5 in
    Array.unsafe_set t.occ w (Array.unsafe_get t.occ w lor (1 lsl (b land 31)))
  end
  else set_ev t tl f_next s;
  Array.unsafe_set t.tails b s;
  t.wheel_count <- t.wheel_count + 1

(* Precondition: t.heads.(b) >= 0. *)
let[@inline always] pop_head t b =
  let s = Array.unsafe_get t.heads b in
  let n = ev t s f_next in
  Array.unsafe_set t.heads b n;
  if n < 0 then begin
    Array.unsafe_set t.tails b (-1);
    let w = b lsr 5 in
    Array.unsafe_set t.occ w (Array.unsafe_get t.occ w land lnot (1 lsl (b land 31)))
  end
  else set_ev t s f_next (-1);
  t.wheel_count <- t.wheel_count - 1;
  s

(* Index of the least-significant set bit of [x <> 0]: five masked tests
   on the isolated bit, no table, no loop. *)
let[@inline always] lowest_bit x =
  let x = x land -x in
  let i = if x land 0xFFFF = 0 then 16 else 0 in
  let i = if x land 0x00FF00FF = 0 then i + 8 else i in
  let i = if x land 0x0F0F0F0F = 0 then i + 4 else i in
  let i = if x land 0x33333333 = 0 then i + 2 else i in
  if x land 0x55555555 = 0 then i + 1 else i

(* Bucket index of the first occupied bucket at or circularly after
   position [s].  Precondition: t.wheel_count > 0 (some bit is set). *)
let[@inline always] next_occupied t s =
  let occ = t.occ in
  let nwords = Array.length occ in
  let w0 = s lsr 5 in
  let m = Array.unsafe_get occ w0 land (-1 lsl (s land 31)) in
  if m <> 0 then (w0 lsl 5) + lowest_bit m
  else begin
    let w = ref (if w0 + 1 = nwords then 0 else w0 + 1) in
    while Array.unsafe_get occ !w = 0 do
      w := if !w + 1 = nwords then 0 else !w + 1
    done;
    (!w lsl 5) + lowest_bit (Array.unsafe_get occ !w)
  end

(* Move the window forward to [time] and migrate overflow events that
   fell inside it into their buckets (in heap (time, seq) order, into
   buckets the forward scan just proved empty). *)
let[@inline always] advance_to t time =
  t.wheel_start <- time;
  if t.ovf_size > 0 then begin
    let limit = time + t.nbuckets in
    while t.ovf_size > 0 && ev t t.ovf.(0) f_time < limit do
      push_bucket t (ovf_pop t)
    done
  end

let prune_ovf t =
  while t.ovf_size > 0 && ev t t.ovf.(0) f_live = 0 do
    recycle t (ovf_pop t)
  done

(* Extract the earliest live event's slot if its time is <= [horizon],
   else return -1 without moving the window (so a horizon stop leaves
   the queue able to accept events from [clock] on).  Precondition:
   t.pending > 0, which guarantees a live event exists somewhere. *)
let rec extract t ~horizon =
  if t.wheel_count = 0 then begin
    prune_ovf t;
    let m = t.ovf.(0) in
    if ev t m f_time > horizon then -1
    else begin
      advance_to t (ev t m f_time);
      extract t ~horizon
    end
  end
  else begin
    (* Find the first bucket with a live head: hop occupied buckets via
       the bitmap (circular order from the window base = increasing
       time), sweeping tombstones as they surface.  The scan starts at
       the last extraction time and the window only moves forward, so
       the whole run re-reads each bitmap word O(1) times plus one word
       per 32 empty cycles of clock advance.  The sweep is fused into
       the scan so the common (no-tombstone) case is one bitmap probe,
       one head load and one liveness test — no out-of-line call. *)
    let b = ref (next_occupied t (t.wheel_start land t.bmask)) in
    let s = ref (Array.unsafe_get t.heads !b) in
    while !s >= 0 && ev t !s f_live = 0 do
      recycle t (pop_head t !b);
      if t.wheel_count = 0 then s := -1
      else begin
        (* [next_occupied] re-returns [b] itself while it still has
           entries, so a bucket mixing tombstones and live events is
           drained before the scan moves on. *)
        b := next_occupied t !b;
        s := Array.unsafe_get t.heads !b
      end
    done;
    if !s < 0 then (* pruning emptied the wheel: the min is in overflow *)
      extract t ~horizon
    else begin
      let s = !s in
      if ev t s f_time > horizon then -1
      else begin
        advance_to t (ev t s f_time);
        ignore (pop_head t !b : int);
        s
      end
    end
  end

(* --- scheduling ----------------------------------------------------- *)

let[@inline always] fill_slot t s ~time ~seq ~hid ~arg fn =
  set_ev t s f_time time;
  set_ev t s f_seq seq;
  set_ev t s f_hid hid;
  set_ev t s f_arg arg;
  if fn != no_fn then Array.unsafe_set t.ev_fn s fn;
  set_ev t s f_live 1;
  set_ev t s f_next (-1);
  t.pending <- t.pending + 1

let schedule t ~time ~hid ~arg fn =
  let s = alloc t in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  fill_slot t s ~time ~seq ~hid ~arg fn;
  if time - t.wheel_start < t.nbuckets then push_bucket t s else ovf_push t s;
  s

let at t time fn =
  if time < t.clock then
    invalid_arg (Printf.sprintf "Sim.at: time %d is before now (%d)" time t.clock);
  ignore (schedule t ~time ~hid:(-1) ~arg:0 fn : int)

let after t delay fn =
  if delay < 0 then invalid_arg "Sim.after: negative delay";
  at t (t.clock + delay) fn

let post t ~time h arg =
  if time < t.clock then
    invalid_arg (Printf.sprintf "Sim.post: time %d is before now (%d)" time t.clock);
  if h < 0 || h >= t.n_handlers then invalid_arg "Sim.post: handler not registered here";
  ignore (schedule t ~time ~hid:h ~arg no_fn : int)

let post_after t ~delay h arg =
  if delay < 0 then invalid_arg "Sim.post_after: negative delay";
  post t ~time:(t.clock + delay) h arg

let timer t ~delay h arg =
  if delay < 0 then invalid_arg "Sim.timer: negative delay";
  if h < 0 || h >= t.n_handlers then invalid_arg "Sim.timer: handler not registered here";
  let s = schedule t ~time:(t.clock + delay) ~hid:h ~arg no_fn in
  s lor (ev t s f_gen lsl slot_bits)

let cancel t token =
  let slot = token land slot_mask in
  let gen = token lsr slot_bits in
  if slot < 0 || slot >= t.pool_size then false
  else if ev t slot f_gen <> gen || ev t slot f_live = 0 then false
  else begin
    (* Tombstone in place; extraction sweeps the slot out later (and
       recycling then bumps the generation). *)
    set_ev t slot f_live 0;
    t.pending <- t.pending - 1;
    true
  end

(* --- the loop ------------------------------------------------------- *)

let fire t s =
  let time = ev t s f_time in
  if Check.enabled () && time < t.clock then
    Check.failf "Sim: event seq %d fires at %d, before the clock (%d)" (ev t s f_seq) time
      t.clock;
  t.clock <- time;
  t.fired <- t.fired + 1;
  t.pending <- t.pending - 1;
  let hid = ev t s f_hid and arg = ev t s f_arg and fn = Array.unsafe_get t.ev_fn s in
  (* Recycle before invoking: the handler may schedule, and reusing the
     just-vacated slot keeps the pool's working set at the live-event
     count. *)
  recycle t s;
  if hid >= 0 then t.handlers.(hid) arg else fn ()

let step t =
  if t.pending = 0 then false
  else begin
    fire t (extract t ~horizon:max_int);
    true
  end

let run ?until t =
  let horizon = match until with Some h -> h | None -> max_int in
  let rec loop () =
    if t.pending > 0 then begin
      let s = extract t ~horizon in
      if s < 0 then t.clock <- horizon
      else begin
        fire t s;
        loop ()
      end
    end
  in
  try loop () with Stop -> ()
