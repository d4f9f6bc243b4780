open Cm_engine
open Cm_machine

type config = {
  line_words : int;
  cache_slots : int;
  hit_cost : int;
  dir_latency : int;
  ctrl_words : int;
}

let default_config =
  { line_words = 4; cache_slots = 4096; hit_cost = 3; dir_latency = 30; ctrl_words = 1 }

type addr = int

(* Directory state of one line, held at its home node. *)
type dir_state = Uncached | Shared_by of Sharers.t | Owned of int

type line_info = {
  home : int;
  mutable dstate : dir_state;
  mem : int array;
  mutable busy_until : int;  (* directory serialization of transactions *)
}

(* Protocol message kinds and coherence counters, interned once per
   memory system so the per-transaction hot path never touches a
   string-keyed table.  The controllers inject through the machine
   transport ([Recv_bare]: the protocol applies state changes at issue
   time and accounts latency itself, so delivery dispatches nothing). *)
type coh_kinds = {
  req : unit Transport.kind;
  fetch : unit Transport.kind;
  wb : unit Transport.kind;
  data : unit Transport.kind;
  inv : unit Transport.kind;
  ack : unit Transport.kind;
  upgack : unit Transport.kind;
}

type coh_counters = {
  read_miss_c : Stats.counter;
  write_miss_c : Stats.counter;
  upgrades_c : Stats.counter;
  invalidations_c : Stats.counter;
  evict_wb_c : Stats.counter;
  evict_clean_c : Stats.counter;
}

(* Pooled wait slots for transaction-completion resumptions: a stalled
   access parks its resumption function and value in a slot and
   schedules the pool's handler, instead of closing a [fun () -> resume
   value] over a [Sim.at] closure event. *)
type waitpool = {
  mutable wfn : Obj.t array;  (* Obj.t -> unit *)
  mutable wv : Obj.t array;
  mutable wfree : int array;
  mutable wtop : int;
}

type t = {
  machine : Machine.t;
  tp : Transport.t;
  cfg : config;
  n_procs : int;
  caches : Cache.t array;
  (* Allocation is a bump cursor, so lines are dense by construction:
     every line in [0, brk) is allocated.  The directory is therefore a
     flat array indexed by line number — the resident-hit path and every
     protocol transaction index it directly, no hashing. *)
  mutable lines : line_info array;
  mutable brk : int;  (* allocation cursor, in lines *)
  kinds : coh_kinds;
  ctrs : coh_counters;
  wp : waitpool;
  wait_hid : Sim.hid;
}

let wp_obj_unit : Obj.t = Obj.repr 0

let wp_fire wp slot =
  let fn : Obj.t -> unit = Obj.obj wp.wfn.(slot) in
  let v = wp.wv.(slot) in
  wp.wfn.(slot) <- wp_obj_unit;
  wp.wv.(slot) <- wp_obj_unit;
  wp.wfree.(wp.wtop) <- slot;
  wp.wtop <- wp.wtop + 1;
  fn v

let wp_alloc wp =
  if wp.wtop = 0 then begin
    let cap = Array.length wp.wfree in
    let ncap = 2 * cap in
    let copy_obj (a : Obj.t array) =
      let n = Array.make ncap wp_obj_unit in
      Array.blit a 0 n 0 cap;
      n
    in
    wp.wfn <- copy_obj wp.wfn;
    wp.wv <- copy_obj wp.wv;
    let nf = Array.make ncap 0 in
    Array.blit wp.wfree 0 nf 0 cap;
    wp.wfree <- nf;
    for k = 0 to cap - 1 do
      wp.wfree.(k) <- cap + k
    done;
    wp.wtop <- cap
  end;
  wp.wtop <- wp.wtop - 1;
  wp.wfree.(wp.wtop)

(* Placeholder for slots in [lines] at or beyond [brk]; never read
   because [info_exn] bounds-checks against [brk] and [alloc] overwrites
   every slot it hands out. *)
(* lint: allow domain-safety — inert placeholder: shared by construction but never mutated and never read (info_exn bounds-checks against brk; alloc overwrites every slot it hands out) *)
let unallocated = { home = -1; dstate = Uncached; mem = [||]; busy_until = 0 }

let create ?(config = default_config) machine =
  if config.line_words <= 0 then invalid_arg "Shmem.create: line_words must be positive";
  if config.cache_slots <= 0 then invalid_arg "Shmem.create: cache_slots must be positive";
  let caches =
    Array.init (Machine.n_procs machine) (fun _ ->
        Cache.create ~n_slots:config.cache_slots ~stats:machine.Machine.stats)
  in
  let tp = Machine.transport machine in
  let stats = machine.Machine.stats in
  let coh name = Transport.kind tp ~recv:Transport.Recv_bare name in
  let wp =
    {
      wfn = Array.make 8 wp_obj_unit;
      wv = Array.make 8 wp_obj_unit;
      wfree = Array.init 8 (fun k -> k);
      wtop = 8;
    }
  in
  let wait_hid = Sim.handler machine.Machine.sim (fun slot -> wp_fire wp slot) in
  {
    machine;
    tp;
    cfg = config;
    n_procs = Machine.n_procs machine;
    caches;
    lines = Array.make 4096 unallocated;
    brk = 0;
    kinds =
      {
        req = coh "coh_req";
        fetch = coh "coh_fetch";
        wb = coh "coh_wb";
        data = coh "coh_data";
        inv = coh "coh_inv";
        ack = coh "coh_ack";
        upgack = coh "coh_upgack";
      };
    ctrs =
      {
        read_miss_c = Stats.counter stats "coh.read_miss";
        write_miss_c = Stats.counter stats "coh.write_miss";
        upgrades_c = Stats.counter stats "coh.upgrades";
        invalidations_c = Stats.counter stats "coh.invalidations";
        evict_wb_c = Stats.counter stats "coh.evict_wb";
        evict_clean_c = Stats.counter stats "coh.evict_clean";
      };
    wp;
    wait_hid;
  }

let alloc t ~home ~words =
  if words <= 0 then invalid_arg "Shmem.alloc: words must be positive";
  if home < 0 || home >= t.n_procs then invalid_arg "Shmem.alloc: bad home";
  let lw = t.cfg.line_words in
  let n_lines = (words + lw - 1) / lw in
  let first_line = t.brk in
  t.brk <- t.brk + n_lines;
  if t.brk > Array.length t.lines then begin
    let cap = max t.brk (2 * Array.length t.lines) in
    let lines = Array.make cap unallocated in
    Array.blit t.lines 0 lines 0 first_line;
    t.lines <- lines
  end;
  for line = first_line to t.brk - 1 do
    t.lines.(line) <- { home; dstate = Uncached; mem = Array.make lw 0; busy_until = 0 }
  done;
  first_line * lw

let line_of t a = a / t.cfg.line_words

let offset_of t a = a mod t.cfg.line_words

let info_exn t line =
  if line >= 0 && line < t.brk then t.lines.(line)
  else invalid_arg (Printf.sprintf "Shmem: unallocated line %d" line)

let home_of t a = (info_exn t (line_of t a)).home

let sim t = t.machine.Machine.sim

(* Inject a protocol message and return its wire latency (including
   link queueing when the contention model is on); protocol state
   changes are applied atomically at issue time, so delivery itself is
   a no-op. *)
let msg t ~src ~dst ~words ~kind = Transport.inject t.tp kind ~src ~dst ~words

(* --- MSI sanitizers (active only under Check) ---------------------- *)

(* Validate the directory entry of [line] against every cache.  The
   protocol applies transactions atomically, so between transactions:
   - Owned o: o holds the only copy, in Modified state;
   - Shared_by s: every resident copy is Shared, listed in s, and
     byte-identical to home memory (s may list stale sharers — clean
     eviction does not notify the directory, as in full-map hardware);
   - Uncached: no cache holds the line. *)
let validate_line t line =
  let info = info_exn t line in
  let state_name = function
    | None -> "absent"
    | Some Cache.Shared -> "Shared"
    | Some Cache.Modified -> "Modified"
  in
  let each f = Array.iteri (fun pid cache -> f pid (Cache.state cache ~line)) t.caches in
  match info.dstate with
  | Owned o ->
    each (fun pid st ->
        if pid = o then
          Check.require (st = Some Cache.Modified)
            "Shmem line %d: directory says Owned %d but its cache copy is %s" line o
            (state_name st)
        else
          Check.require (st = None)
            "Shmem line %d: directory says Owned %d but cache %d also holds it (%s) — \
             single-writer invariant broken"
            line o pid (state_name st))
  | Shared_by s ->
    each (fun pid st ->
        match st with
        | None -> ()
        | Some Cache.Modified ->
          Check.failf
            "Shmem line %d: cache %d holds Modified while the directory says Shared" line pid
        | Some Cache.Shared ->
          Check.require (Sharers.mem pid s)
            "Shmem line %d: cache %d holds a Shared copy but is not in the sharer set" line
            pid;
          (match Cache.lookup t.caches.(pid) ~line with
          | Some (_, d) ->
            Check.require (d = info.mem)
              "Shmem line %d: cache %d's Shared copy diverges from home memory (stale \
               value after downgrade)"
              line pid
          | None -> ()))
  | Uncached ->
    each (fun pid st ->
        Check.require (st = None)
          "Shmem line %d: directory says Uncached but cache %d holds it (%s)" line pid
          (state_name st))

let check_line t line = if Check.enabled () then validate_line t line

let validate t =
  for line = 0 to t.brk - 1 do
    validate_line t line
  done

(* Install [data] for [line] in [pid]'s cache, writing back a displaced
   modified victim. *)
let install t pid line state data =
  match Cache.insert t.caches.(pid) ~line ~state ~data with
  | None -> ()
  | Some ev ->
    if ev.Cache.was_modified then begin
      let vinfo = info_exn t ev.Cache.line in
      (match vinfo.dstate with
      | Owned o -> assert (o = pid)
      | Uncached | Shared_by _ -> assert false);
      Array.blit ev.Cache.data 0 vinfo.mem 0 t.cfg.line_words;
      vinfo.dstate <- Uncached;
      Stats.Counter.incr t.ctrs.evict_wb_c;
      ignore
        (msg t ~src:pid ~dst:vinfo.home ~words:(t.cfg.ctrl_words + t.cfg.line_words)
           ~kind:t.kinds.wb);
      check_line t ev.Cache.line
    end
    else Stats.Counter.incr t.ctrs.evict_clean_c
(* A cleanly evicted line leaves a stale sharer in the directory; later
   invalidations still message it, as in real full-map protocols. *)

(* Read-miss transaction: bring [line] into [pid]'s cache in Shared state.
   Returns the transaction latency.  All state changes happen now. *)
let read_miss t pid line =
  let cfg = t.cfg in
  let info = info_exn t line in
  let home = info.home in
  Stats.Counter.incr t.ctrs.read_miss_c;
  let req = msg t ~src:pid ~dst:home ~words:cfg.ctrl_words ~kind:t.kinds.req in
  let lat = ref (req + cfg.dir_latency) in
  (match info.dstate with
  | Owned o ->
    assert (o <> pid);
    (* Fetch from the owner: it writes back and keeps a Shared copy. *)
    let fetch = msg t ~src:home ~dst:o ~words:cfg.ctrl_words ~kind:t.kinds.fetch in
    let wb = msg t ~src:o ~dst:home ~words:(cfg.ctrl_words + cfg.line_words) ~kind:t.kinds.wb in
    (match Cache.lookup t.caches.(o) ~line with
    | Some (Cache.Modified, d) ->
      Array.blit d 0 info.mem 0 cfg.line_words;
      Cache.set_state t.caches.(o) ~line Cache.Shared
    | Some (Cache.Shared, _) | None -> assert false);
    lat := !lat + fetch + wb + cfg.dir_latency;
    info.dstate <- Shared_by (Sharers.add pid (Sharers.singleton ~n:t.n_procs o))
  | Shared_by s -> info.dstate <- Shared_by (Sharers.add pid s)
  | Uncached -> info.dstate <- Shared_by (Sharers.singleton ~n:t.n_procs pid));
  let data =
    msg t ~src:home ~dst:pid ~words:(cfg.ctrl_words + cfg.line_words) ~kind:t.kinds.data
  in
  lat := !lat + data;
  install t pid line Cache.Shared info.mem;
  check_line t line;
  !lat

(* Invalidate every sharer in [others]; returns the slowest
   invalidate/ack round trip. *)
let invalidate_sharers t ~home ~others line =
  let cfg = t.cfg in
  let slowest = ref 0 in
  Sharers.iter
    (fun sh ->
      Stats.Counter.incr t.ctrs.invalidations_c;
      let inv = msg t ~src:home ~dst:sh ~words:cfg.ctrl_words ~kind:t.kinds.inv in
      let ack = msg t ~src:sh ~dst:home ~words:cfg.ctrl_words ~kind:t.kinds.ack in
      ignore (Cache.invalidate t.caches.(sh) ~line);
      let round = inv + ack in
      if round > !slowest then slowest := round)
    others;
  !slowest

(* Exclusive-ownership transaction (write miss or upgrade).  Afterwards
   [pid]'s cache holds [line] in Modified state; returns the latency. *)
let write_miss t pid line =
  let cfg = t.cfg in
  let info = info_exn t line in
  let home = info.home in
  let req = msg t ~src:pid ~dst:home ~words:cfg.ctrl_words ~kind:t.kinds.req in
  let lat = ref (req + cfg.dir_latency) in
  let had_shared_copy =
    match Cache.state t.caches.(pid) ~line with Some Cache.Shared -> true | _ -> false
  in
  (match info.dstate with
  | Uncached -> ()
  | Shared_by s ->
    let others = Sharers.remove pid s in
    lat := !lat + invalidate_sharers t ~home ~others line
  | Owned o ->
    assert (o <> pid);
    (* Fetch-and-invalidate the current owner. *)
    Stats.Counter.incr t.ctrs.invalidations_c;
    let fetch = msg t ~src:home ~dst:o ~words:cfg.ctrl_words ~kind:t.kinds.fetch in
    let wb = msg t ~src:o ~dst:home ~words:(cfg.ctrl_words + cfg.line_words) ~kind:t.kinds.wb in
    (match Cache.invalidate t.caches.(o) ~line with
    | Some dirty -> Array.blit dirty 0 info.mem 0 cfg.line_words
    | None -> assert false);
    lat := !lat + fetch + wb + cfg.dir_latency);
  info.dstate <- Owned pid;
  if had_shared_copy then begin
    (* Upgrade: data is already present and clean; only an ack returns. *)
    Stats.Counter.incr t.ctrs.upgrades_c;
    let upgack = msg t ~src:home ~dst:pid ~words:cfg.ctrl_words ~kind:t.kinds.upgack in
    lat := !lat + upgack;
    Cache.set_state t.caches.(pid) ~line Cache.Modified
  end
  else begin
    Stats.Counter.incr t.ctrs.write_miss_c;
    let data =
      msg t ~src:home ~dst:pid ~words:(cfg.ctrl_words + cfg.line_words) ~kind:t.kinds.data
    in
    lat := !lat + data;
    install t pid line Cache.Modified info.mem
  end;
  check_line t line;
  !lat

(* The live, writable copy of [line] in [pid]'s cache (which must hold it
   in Modified state). *)
let owned_data t pid line =
  match Cache.lookup t.caches.(pid) ~line with
  | Some (Cache.Modified, d) -> d
  | Some (Cache.Shared, _) | None -> assert false

(* The home directory pipelines read requests but services exclusive
   (ownership-transfer) transactions on a line one at a time: a write
   issued while an earlier transaction is in flight queues behind it.
   This serialization of hot write-shared lines bounds e.g. how fast a
   balancer lock can be handed between processors. *)
let finish_time t line ~exclusive lat =
  let info = info_exn t line in
  let now = Sim.now (sim t) in
  if exclusive then begin
    let start = max now info.busy_until in
    let finish = start + lat in
    info.busy_until <- finish;
    finish
  end
  else
    (* Reads still queue behind a pending exclusive transfer. *)
    max (now + lat) info.busy_until

(* Transaction completion: park the stalled thread's resumption and its
   value in a pooled wait slot that fires when the transaction
   finishes — no wrapper closure and no closure event. *)
let resume_app t line ~exclusive lat (fn : Obj.t -> unit) (v : Obj.t) =
  let finish = finish_time t line ~exclusive lat in
  let slot = wp_alloc t.wp in
  t.wp.wfn.(slot) <- Obj.repr fn;
  t.wp.wv.(slot) <- v;
  Sim.post_after (sim t) ~delay:(finish - Sim.now (sim t)) t.wait_hid slot

open Thread.Infix

let read_step c =
  let t : t = Thread.Frame.getv3 c in
  let a = Thread.Frame.geti3 c in
  let line = line_of t a and off = offset_of t a in
  let pid = Processor.id (Thread.Frame.proc c) in
  let cache = t.caches.(pid) in
  match Cache.lookup cache ~line with
  | Some (_, data) ->
    Cache.record_hit cache;
    Thread.Frame.call_k c data.(off)
  | None ->
    Cache.record_miss cache;
    let resume : Obj.t -> unit = Thread.Frame.stall_k c in
    let lat = read_miss t pid line in
    let value = (info_exn t line).mem.(off) in
    resume_app t line ~exclusive:false lat resume (Obj.repr value)

let read t a c k =
  Thread.Frame.save_k c k;
  Thread.Frame.setv3 c t;
  Thread.Frame.seti3 c a;
  Thread.Frame.hold_then c t.cfg.hit_cost read_step

(* [write] and [rmw] share one step: obtain Modified ownership of [a]'s
   line, then atomically apply the mutation to the cached copy.  i1
   selects the mutation so [write] carries its value in an int slot (no
   mutate closure) and [rmw] only ships the caller's own function. *)
let excl_mutate c data off =
  if Thread.Frame.geti1 c = 1 then begin
    data.(off) <- Thread.Frame.geti2 c;
    Obj.repr ()
  end
  else begin
    let f : int -> int = Thread.Frame.getv2 c in
    let old = data.(off) in
    data.(off) <- f old;
    Obj.repr old
  end

let excl_step c =
  let t : t = Thread.Frame.getv3 c in
  let a = Thread.Frame.geti3 c in
  let line = line_of t a and off = offset_of t a in
  let pid = Processor.id (Thread.Frame.proc c) in
  let cache = t.caches.(pid) in
  match Cache.lookup cache ~line with
  | Some (Cache.Modified, data) ->
    Cache.record_hit cache;
    Thread.Frame.call_k c (excl_mutate c data off)
  | Some (Cache.Shared, _) | None ->
    (match Cache.state cache ~line with
    | Some Cache.Shared -> Cache.record_hit cache (* data present, permission miss *)
    | _ -> Cache.record_miss cache);
    let resume : Obj.t -> unit = Thread.Frame.stall_k c in
    let lat = write_miss t pid line in
    let result = excl_mutate c (owned_data t pid line) off in
    resume_app t line ~exclusive:true lat resume result

let write t a v c k =
  Thread.Frame.save_k c k;
  Thread.Frame.setv3 c t;
  Thread.Frame.seti3 c a;
  Thread.Frame.seti1 c 1;
  Thread.Frame.seti2 c v;
  Thread.Frame.hold_then c t.cfg.hit_cost excl_step

let rmw t a f c k =
  Thread.Frame.save_k c k;
  Thread.Frame.setv3 c t;
  Thread.Frame.seti3 c a;
  Thread.Frame.seti1 c 2;
  Thread.Frame.setv2 c f;
  Thread.Frame.hold_then c t.cfg.hit_cost excl_step

let read_block t a n =
  if n < 0 then invalid_arg "Shmem.read_block: negative size";
  let result = Array.make (max n 1) 0 in
  let rec go i =
    if i >= n then Thread.return result
    else
      let* v = read t (a + i) in
      result.(i) <- v;
      go (i + 1)
  in
  go 0

(* Authoritative current copy of a line: the owner's cached data when the
   line is Owned, the home memory otherwise. *)
let current_copy t line =
  let info = info_exn t line in
  match info.dstate with Owned o -> owned_data t o line | Uncached | Shared_by _ -> info.mem

let peek t a = (current_copy t (line_of t a)).(offset_of t a)

let poke t a v =
  let line = line_of t a and off = offset_of t a in
  let copy = current_copy t line in
  copy.(off) <- v;
  (* Keep any clean Shared copies consistent (initialization happens
     before threads run, but tests may poke mid-run for fault injection). *)
  let info = info_exn t line in
  (match info.dstate with
  | Shared_by s ->
    Sharers.iter
      (fun sh ->
        match Cache.lookup t.caches.(sh) ~line with
        | Some (_, d) -> d.(off) <- v
        | None -> ())
      s
  | Uncached | Owned _ -> ())

let cache_of t p = t.caches.(p)

module For_testing = struct
  let force_second_owner t a ~pid =
    let line = line_of t a in
    let info = info_exn t line in
    ignore (Cache.insert t.caches.(pid) ~line ~state:Cache.Modified ~data:info.mem)
end
