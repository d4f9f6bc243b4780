(* Tests for the cache-coherent shared-memory subsystem: Cache, Shmem
   (MSI directory protocol), Lock. *)

open Cm_engine
open Cm_machine
open Cm_memory
open Thread.Infix

let costs = Costs.software

let machine ?(n = 8) () = Machine.create ~seed:7 ~n_procs:n ~costs ()

let small_config = { Shmem.default_config with Shmem.cache_slots = 8 }

(* ------------------------------------------------------------------ *)
(* Cache                                                              *)
(* ------------------------------------------------------------------ *)

let mk_cache ?(slots = 4) () = Cache.create ~n_slots:slots ~stats:(Stats.create ())

let test_cache_insert_lookup () =
  let c = mk_cache () in
  Alcotest.(check bool) "initially absent" true (Cache.lookup c ~line:3 = None);
  let ev = Cache.insert c ~line:3 ~state:Cache.Shared ~data:[| 1; 2; 3; 4 |] in
  Alcotest.(check bool) "no eviction when empty" true (ev = None);
  (match Cache.lookup c ~line:3 with
  | Some (Cache.Shared, data) -> Alcotest.(check (array int)) "data" [| 1; 2; 3; 4 |] data
  | _ -> Alcotest.fail "expected shared hit")

let test_cache_private_copy () =
  let c = mk_cache () in
  let original = [| 9; 9; 9; 9 |] in
  ignore (Cache.insert c ~line:0 ~state:Cache.Modified ~data:original);
  original.(0) <- 0;
  (match Cache.lookup c ~line:0 with
  | Some (_, data) -> Alcotest.(check int) "copy not aliased" 9 data.(0)
  | None -> Alcotest.fail "line missing")

let test_cache_conflict_eviction () =
  let c = mk_cache ~slots:4 () in
  ignore (Cache.insert c ~line:1 ~state:Cache.Modified ~data:[| 7; 0; 0; 0 |]);
  (* Line 5 maps to the same slot (5 mod 4 = 1). *)
  match Cache.insert c ~line:5 ~state:Cache.Shared ~data:[| 1; 1; 1; 1 |] with
  | Some ev ->
    Alcotest.(check int) "victim line" 1 ev.Cache.line;
    Alcotest.(check bool) "was modified" true ev.Cache.was_modified;
    Alcotest.(check int) "victim data" 7 ev.Cache.data.(0);
    Alcotest.(check bool) "old line gone" true (Cache.lookup c ~line:1 = None)
  | None -> Alcotest.fail "expected eviction"

let test_cache_reinsert_updates () =
  let c = mk_cache () in
  ignore (Cache.insert c ~line:2 ~state:Cache.Shared ~data:[| 1; 0; 0; 0 |]);
  let ev = Cache.insert c ~line:2 ~state:Cache.Modified ~data:[| 2; 0; 0; 0 |] in
  Alcotest.(check bool) "no self-eviction" true (ev = None);
  (match Cache.lookup c ~line:2 with
  | Some (Cache.Modified, data) -> Alcotest.(check int) "updated" 2 data.(0)
  | _ -> Alcotest.fail "expected modified")

let test_cache_invalidate () =
  let c = mk_cache () in
  ignore (Cache.insert c ~line:1 ~state:Cache.Shared ~data:[| 1; 2; 3; 4 |]);
  Alcotest.(check bool) "clean inval returns none" true (Cache.invalidate c ~line:1 = None);
  ignore (Cache.insert c ~line:1 ~state:Cache.Modified ~data:[| 5; 6; 7; 8 |]);
  (match Cache.invalidate c ~line:1 with
  | Some dirty -> Alcotest.(check int) "dirty data returned" 5 dirty.(0)
  | None -> Alcotest.fail "expected dirty data");
  Alcotest.(check bool) "absent invalidate is noop" true (Cache.invalidate c ~line:1 = None)

let test_cache_set_state () =
  let c = mk_cache () in
  ignore (Cache.insert c ~line:0 ~state:Cache.Shared ~data:[| 0; 0; 0; 0 |]);
  Cache.set_state c ~line:0 Cache.Modified;
  Alcotest.(check bool) "upgraded" true (Cache.state c ~line:0 = Some Cache.Modified);
  Alcotest.check_raises "non-resident" (Invalid_argument "Cache.set_state: line not resident")
    (fun () -> Cache.set_state c ~line:9 Cache.Shared)

(* ------------------------------------------------------------------ *)
(* Shmem basics                                                       *)
(* ------------------------------------------------------------------ *)

let run_thread ?(on = 0) m body =
  let finished = ref false in
  Machine.spawn m ~on ~on_exit:(fun () -> finished := true) body;
  Machine.run m;
  Alcotest.(check bool) "thread finished" true !finished

let test_shmem_alloc_homes () =
  let m = machine () in
  let mem = Shmem.create m in
  let a = Shmem.alloc mem ~home:3 ~words:10 in
  let b = Shmem.alloc mem ~home:5 ~words:1 in
  Alcotest.(check int) "a home" 3 (Shmem.home_of mem a);
  Alcotest.(check int) "a end home" 3 (Shmem.home_of mem (a + 9));
  Alcotest.(check int) "b home" 5 (Shmem.home_of mem b);
  Alcotest.(check bool) "line aligned" true (b mod 4 = 0);
  Alcotest.(check bool) "no overlap" true (b >= a + 10)

let test_shmem_unallocated () =
  let m = machine () in
  let mem = Shmem.create m in
  Alcotest.check_raises "unallocated" (Invalid_argument "Shmem: unallocated line 250") (fun () ->
      ignore (Shmem.home_of mem 1000))

(* A zero line size would divide by zero in every address lookup, and
   zero cache slots in every cache index: both are refused up front. *)
let test_shmem_bad_geometry () =
  let m = machine () in
  Alcotest.check_raises "line_words 0"
    (Invalid_argument "Shmem.create: line_words must be positive") (fun () ->
      ignore (Shmem.create ~config:{ Shmem.default_config with Shmem.line_words = 0 } m));
  Alcotest.check_raises "cache_slots 0"
    (Invalid_argument "Shmem.create: cache_slots must be positive") (fun () ->
      ignore (Shmem.create ~config:{ Shmem.default_config with Shmem.cache_slots = 0 } m))

let test_shmem_read_after_write_local () =
  let m = machine () in
  let mem = Shmem.create m in
  let a = Shmem.alloc mem ~home:1 ~words:4 in
  let got = ref (-1) in
  run_thread m
    (let* () = Shmem.write mem a 123 in
     let* v = Shmem.read mem a in
     got := v;
     Thread.return ());
  Alcotest.(check int) "read back" 123 !got

let test_shmem_zero_initialized () =
  let m = machine () in
  let mem = Shmem.create m in
  let a = Shmem.alloc mem ~home:0 ~words:8 in
  let got = ref (-1) in
  run_thread m
    (let* v = Shmem.read mem (a + 5) in
     got := v;
     Thread.return ());
  Alcotest.(check int) "zero" 0 !got

let test_shmem_cross_processor_visibility () =
  let m = machine () in
  let mem = Shmem.create m in
  let a = Shmem.alloc mem ~home:0 ~words:1 in
  let got = ref (-1) in
  Machine.spawn m ~on:1 (Shmem.write mem a 77);
  (* Reader starts much later, after the write has surely completed. *)
  Machine.spawn m ~on:2
    (let* () = Thread.sleep 100000 in
     let* v = Shmem.read mem a in
     got := v;
     Thread.return ());
  Machine.run m;
  Alcotest.(check int) "sees remote write" 77 !got

(* The protocol times each transaction from the latencies its messages
   return at issue, so a faulted coherence message has no defined
   outcome (a drop would only make the miss cheaper): the transport
   refuses, naming the kind.  Faults armed on other kinds leave the
   protocol alone. *)
let test_shmem_coherence_refuses_faults () =
  let miss ~faulted =
    let m = machine () in
    let mem = Shmem.create m in
    let a = Shmem.alloc mem ~home:0 ~words:1 in
    Transport.configure_faults (Machine.transport m) ~seed:1
      [ (faulted, { Transport.no_fault with drop = 1.0 }) ];
    Machine.spawn m ~on:1 (Thread.ignore_m (Shmem.read mem a));
    Machine.run m
  in
  miss ~faulted:"rpc";
  match miss ~faulted:"coh_req" with
  | () -> Alcotest.fail "a fault spec on coh_req was accepted"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the kind" true
      (String.starts_with ~prefix:"Transport.inject: kind \"coh_req\"" msg)

let test_shmem_peek_poke () =
  let m = machine () in
  let mem = Shmem.create m in
  let a = Shmem.alloc mem ~home:2 ~words:4 in
  Shmem.poke mem (a + 1) 55;
  Alcotest.(check int) "peek sees poke" 55 (Shmem.peek mem (a + 1));
  let got = ref 0 in
  run_thread m
    (let* v = Shmem.read mem (a + 1) in
     got := v;
     Thread.return ());
  Alcotest.(check int) "simulated read sees poke" 55 !got

let test_shmem_peek_sees_dirty_copy () =
  let m = machine () in
  let mem = Shmem.create m in
  let a = Shmem.alloc mem ~home:0 ~words:1 in
  run_thread ~on:3 m (Shmem.write mem a 42);
  (* The line is still Modified in processor 3's cache; peek must find it. *)
  Alcotest.(check int) "dirty value visible" 42 (Shmem.peek mem a)

let test_shmem_read_block () =
  let m = machine () in
  let mem = Shmem.create m in
  let a = Shmem.alloc mem ~home:0 ~words:10 in
  for i = 0 to 9 do
    Shmem.poke mem (a + i) (i * i)
  done;
  let got = ref [||] in
  run_thread m
    (let* block = Shmem.read_block mem a 10 in
     got := block;
     Thread.return ());
  Alcotest.(check (array int)) "block contents" (Array.init 10 (fun i -> i * i)) !got

(* ------------------------------------------------------------------ *)
(* Shmem protocol behaviour                                           *)
(* ------------------------------------------------------------------ *)

let test_shmem_hit_no_traffic () =
  let m = machine () in
  let mem = Shmem.create m in
  let a = Shmem.alloc mem ~home:5 ~words:1 in
  let after_first = ref 0 and after_second = ref 0 in
  run_thread m
    (let* _ = Shmem.read mem a in
     after_first := Network.total_messages m.Machine.net;
     let* _ = Shmem.read mem a in
     after_second := Network.total_messages m.Machine.net;
     Thread.return ());
  Alcotest.(check bool) "miss produced traffic" true (!after_first > 0);
  Alcotest.(check int) "hit produced none" !after_first !after_second;
  Alcotest.(check int) "one hit one miss" 1 (Stats.get m.Machine.stats "cache.hits");
  Alcotest.(check int) "one miss" 1 (Stats.get m.Machine.stats "cache.misses")

let test_shmem_read_miss_messages () =
  let m = machine () in
  let mem = Shmem.create m in
  let a = Shmem.alloc mem ~home:5 ~words:1 in
  run_thread m (Thread.ignore_m (Shmem.read mem a));
  Alcotest.(check int) "request sent" 1 (Network.messages_of_kind m.Machine.net "coh_req");
  Alcotest.(check int) "data reply sent" 1 (Network.messages_of_kind m.Machine.net "coh_data");
  (* Reply carries the line: 1 ctrl + 4 data + 2 header. *)
  Alcotest.(check int) "data words" 7 (Network.words_of_kind m.Machine.net "coh_data")

let test_shmem_write_invalidates_readers () =
  let m = machine () in
  let mem = Shmem.create m in
  let a = Shmem.alloc mem ~home:0 ~words:1 in
  (* Three readers cache the line; then a writer invalidates all of them. *)
  for p = 1 to 3 do
    Machine.spawn m ~on:p (Thread.ignore_m (Shmem.read mem a))
  done;
  Machine.run m;
  Machine.spawn m ~on:4 (Shmem.write mem a 1);
  Machine.run m;
  Alcotest.(check int) "three invalidations" 3 (Stats.get m.Machine.stats "coh.invalidations");
  for p = 1 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "proc %d no longer caches the line" p)
      true
      (Cache.state (Shmem.cache_of mem p) ~line:(a / 4) = None)
  done;
  Alcotest.(check bool) "writer owns it" true
    (Cache.state (Shmem.cache_of mem 4) ~line:(a / 4) = Some Cache.Modified)

let test_shmem_write_shared_pingpong () =
  (* Alternating writers force ownership transfers (migratory data). *)
  let m = machine () in
  let mem = Shmem.create m in
  let a = Shmem.alloc mem ~home:0 ~words:1 in
  run_thread ~on:1 m (Shmem.write mem a 1);
  let msgs_before = Network.total_messages m.Machine.net in
  Machine.spawn m ~on:2 (Shmem.write mem a 2);
  Machine.run m;
  let msgs_after = Network.total_messages m.Machine.net in
  (* req + fetch + wb + data = 4 messages for the ownership transfer *)
  Alcotest.(check int) "ownership transfer messages" 4 (msgs_after - msgs_before);
  Alcotest.(check int) "value current" 2 (Shmem.peek mem a)

let test_shmem_upgrade_cheaper_than_miss () =
  let m = machine () in
  let mem = Shmem.create m in
  let a = Shmem.alloc mem ~home:7 ~words:1 in
  run_thread ~on:1 m
    (let* _ = Shmem.read mem a in
     (* Upgrade: the data is already cached Shared. *)
     Shmem.write mem a 9);
  Alcotest.(check int) "upgrade counted" 1 (Stats.get m.Machine.stats "coh.upgrades");
  Alcotest.(check int) "no full write miss" 0 (Stats.get m.Machine.stats "coh.write_miss")

let test_shmem_eviction_writeback_preserves_values () =
  let m = machine () in
  let mem = Shmem.create ~config:small_config m in
  (* 8 cache slots; write 32 distinct lines so every one is evicted. *)
  let addrs = Array.init 32 (fun i -> (Shmem.alloc mem ~home:(i mod 8) ~words:4, i * 3)) in
  let sum = ref 0 in
  run_thread m
    (let* () =
       Thread.iter_list (fun (a, v) -> Shmem.write mem a v) (Array.to_list addrs)
     in
     let* () =
       Thread.iter_list
         (fun (a, _) ->
           let* v = Shmem.read mem a in
           sum := !sum + v;
           Thread.return ())
         (Array.to_list addrs)
     in
     Thread.return ());
  let expect = Array.fold_left (fun acc (_, v) -> acc + v) 0 addrs in
  Alcotest.(check int) "all values survived eviction" expect !sum;
  Alcotest.(check bool) "write-backs happened" true (Stats.get m.Machine.stats "coh.evict_wb" > 0)

let test_shmem_stall_holds_cpu () =
  (* While a thread stalls on a remote miss, another thread on the same
     processor must NOT run (no hardware multithreading). *)
  let m = machine () in
  let mem = Shmem.create m in
  let a = Shmem.alloc mem ~home:7 ~words:1 in
  let order = ref [] in
  Machine.spawn m ~on:0
    (let* _ = Shmem.read mem a in
     order := "misser" :: !order;
     Thread.return ());
  Machine.spawn m ~on:0
    (let* () = Thread.compute 1 in
     order := "other" :: !order;
     Thread.return ());
  Machine.run m;
  Alcotest.(check (list string)) "miss completes before other runs" [ "misser"; "other" ]
    (List.rev !order)

let test_shmem_remote_access_uses_no_remote_cpu () =
  let m = machine () in
  let mem = Shmem.create m in
  let a = Shmem.alloc mem ~home:6 ~words:1 in
  run_thread ~on:0 m (Thread.ignore_m (Shmem.read mem a));
  Alcotest.(check int) "home CPU untouched" 0 (Processor.busy_cycles (Machine.proc m 6))

let test_shmem_rmw_returns_old () =
  let m = machine () in
  let mem = Shmem.create m in
  let a = Shmem.alloc mem ~home:0 ~words:1 in
  Shmem.poke mem a 10;
  let old = ref (-1) and now = ref (-1) in
  run_thread m
    (let* o = Shmem.rmw mem a (fun v -> v + 5) in
     old := o;
     let* v = Shmem.read mem a in
     now := v;
     Thread.return ());
  Alcotest.(check int) "old value" 10 !old;
  Alcotest.(check int) "new value" 15 !now

let test_shmem_rmw_atomic_counter () =
  let m = machine ~n:16 () in
  let mem = Shmem.create m in
  let a = Shmem.alloc mem ~home:0 ~words:1 in
  let per_thread = 25 in
  for p = 0 to 15 do
    Machine.spawn m ~on:p
      (Thread.repeat per_thread (fun _ -> Thread.ignore_m (Shmem.rmw mem a (fun v -> v + 1))))
  done;
  Machine.run m;
  Alcotest.(check int) "no lost updates" (16 * per_thread) (Shmem.peek mem a)

(* Coherence invariant: for every allocated line, at most one Modified
   copy exists, and a Modified copy excludes any Shared copy. *)
let check_single_writer m mem addrs =
  List.iter
    (fun a ->
      let line = a / 4 in
      let modified = ref 0 and shared = ref 0 in
      for p = 0 to Machine.n_procs m - 1 do
        match Cache.state (Shmem.cache_of mem p) ~line with
        | Some Cache.Modified -> incr modified
        | Some Cache.Shared -> incr shared
        | None -> ()
      done;
      if !modified > 1 then Alcotest.failf "line %d has %d writers" line !modified;
      if !modified = 1 && !shared > 0 then
        Alcotest.failf "line %d has a writer and %d readers" line !shared)
    addrs

let prop_shmem_single_writer =
  QCheck.Test.make ~name:"single-writer invariant under random ops" ~count:30
    QCheck.(pair small_int (list_of_size Gen.(5 -- 60) (triple (int_range 0 7) (int_range 0 5) bool)))
    (fun (seed, ops) ->
      let m = Machine.create ~seed:(seed + 1) ~n_procs:8 ~costs () in
      let mem = Shmem.create ~config:small_config m in
      let addrs = List.init 6 (fun i -> Shmem.alloc mem ~home:(i mod 8) ~words:2) in
      let addr_arr = Array.of_list addrs in
      List.iteri
        (fun i (p, slot, is_write) ->
          Machine.spawn m ~on:p
            (let* () = Thread.sleep (i * 13) in
             if is_write then Shmem.write mem addr_arr.(slot) i
             else Thread.ignore_m (Shmem.read mem addr_arr.(slot))))
        ops;
      Machine.run m;
      check_single_writer m mem addrs;
      true)

let prop_shmem_sequential_semantics =
  (* A single thread doing random reads/writes over a few addresses must
     behave exactly like an array. *)
  QCheck.Test.make ~name:"single-thread memory = array semantics" ~count:30
    QCheck.(list_of_size Gen.(1 -- 80) (triple (int_range 0 9) (int_range 0 99) bool))
    (fun ops ->
      let m = machine () in
      let mem = Shmem.create ~config:small_config m in
      let base = Shmem.alloc mem ~home:0 ~words:10 in
      let model = Array.make 10 0 in
      let ok = ref true in
      run_thread m
        (Thread.iter_list
           (fun (slot, v, is_write) ->
             if is_write then begin
               model.(slot) <- v;
               Shmem.write mem (base + slot) v
             end
             else
               let* got = Shmem.read mem (base + slot) in
               if got <> model.(slot) then ok := false;
               Thread.return ())
           ops);
      !ok)

(* ------------------------------------------------------------------ *)
(* Lock                                                               *)
(* ------------------------------------------------------------------ *)

let test_lock_uncontended () =
  let m = machine () in
  let mem = Shmem.create m in
  let lock = Lock.create mem ~home:0 in
  let entered = ref false in
  run_thread m
    (Lock.with_lock lock (fun () ->
         entered := true;
         Thread.return ()));
  Alcotest.(check bool) "critical section ran" true !entered;
  Alcotest.(check bool) "released" true (Lock.holder_free lock)

let test_lock_mutual_exclusion () =
  let m = machine ~n:8 () in
  let mem = Shmem.create m in
  let lock = Lock.create mem ~home:0 in
  let counter = Shmem.alloc mem ~home:0 ~words:1 in
  let in_cs = ref 0 and max_in_cs = ref 0 in
  let per_thread = 10 in
  for p = 0 to 7 do
    Machine.spawn m ~on:p
      (Thread.repeat per_thread (fun _ ->
           Lock.with_lock lock (fun () ->
               incr in_cs;
               if !in_cs > !max_in_cs then max_in_cs := !in_cs;
               (* Non-atomic read-modify-write: only safe under the lock. *)
               let* v = Shmem.read mem counter in
               let* () = Thread.compute 20 in
               let* () = Shmem.write mem counter (v + 1) in
               decr in_cs;
               Thread.return ())))
  done;
  Machine.run m;
  Alcotest.(check int) "never two holders" 1 !max_in_cs;
  Alcotest.(check int) "no lost updates" (8 * per_thread) (Shmem.peek mem counter)

let test_lock_contention_generates_traffic () =
  let m = machine ~n:4 () in
  let mem = Shmem.create m in
  let lock = Lock.create mem ~home:0 in
  for p = 0 to 3 do
    Machine.spawn m ~on:p
      (Thread.repeat 5 (fun _ ->
           Lock.with_lock lock (fun () -> Thread.compute 200)))
  done;
  Machine.run m;
  Alcotest.(check bool) "coherence messages flowed" true
    (Network.messages_of_kind m.Machine.net "coh_req" > 20)


(* ------------------------------------------------------------------ *)
(* Rwlock                                                             *)
(* ------------------------------------------------------------------ *)

let test_rwlock_readers_share () =
  let m = machine ~n:8 () in
  let mem = Shmem.create m in
  let lock = Rwlock.create mem ~home:0 in
  let inside = ref 0 and max_inside = ref 0 in
  for p = 0 to 5 do
    Machine.spawn m ~on:p
      (Rwlock.with_read lock (fun () ->
           incr inside;
           if !inside > !max_inside then max_inside := !inside;
           let* () = Thread.compute 500 in
           decr inside;
           Thread.return ()))
  done;
  Machine.run m;
  Alcotest.(check bool) "readers overlapped" true (!max_inside >= 2);
  Alcotest.(check bool) "lock drained" true (Rwlock.free lock)

let test_rwlock_writer_excludes () =
  let m = machine ~n:8 () in
  let mem = Shmem.create m in
  let lock = Rwlock.create mem ~home:0 in
  let value = Shmem.alloc mem ~home:0 ~words:1 in
  let writers = 4 and per_writer = 6 in
  let torn_reads = ref 0 in
  for w = 0 to writers - 1 do
    Machine.spawn m ~on:w
      (Thread.repeat per_writer (fun _ ->
           Rwlock.with_write lock (fun () ->
               (* Non-atomic increment: correct only under exclusion. *)
               let* v = Shmem.read mem value in
               let* () = Thread.compute 30 in
               Shmem.write mem value (v + 1))))
  done;
  (* Concurrent readers verify they never observe a half-open writer
     section (the value is always consistent under the read lock). *)
  for r = 0 to 2 do
    Machine.spawn m ~on:(writers + r)
      (Thread.repeat 10 (fun _ ->
           Rwlock.with_read lock (fun () ->
               let* v1 = Shmem.read mem value in
               let* () = Thread.compute 20 in
               let* v2 = Shmem.read mem value in
               if v1 <> v2 then incr torn_reads;
               Thread.return ())))
  done;
  Machine.run m;
  Alcotest.(check int) "no lost updates" (writers * per_writer) (Shmem.peek mem value);
  Alcotest.(check int) "no torn reads" 0 !torn_reads

let test_rwlock_write_waits_for_readers () =
  let m = machine ~n:4 () in
  let mem = Shmem.create m in
  let lock = Rwlock.create mem ~home:0 in
  let order = ref [] in
  Machine.spawn m ~on:0
    (Rwlock.with_read lock (fun () ->
         let* () = Thread.compute 2000 in
         order := "reader done" :: !order;
         Thread.return ()));
  Machine.spawn m ~on:1
    (let* () = Thread.sleep 100 in
     Rwlock.with_write lock (fun () ->
         order := "writer in" :: !order;
         Thread.return ()));
  Machine.run m;
  Alcotest.(check (list string)) "writer after reader" [ "reader done"; "writer in" ]
    (List.rev !order)

let prop_rwlock_counter_correct =
  QCheck.Test.make ~name:"rwlock protects a non-atomic counter" ~count:15
    QCheck.(pair (int_range 1 6) (int_range 1 8))
    (fun (writers, per_writer) ->
      let m = machine ~n:8 () in
      let mem = Shmem.create m in
      let lock = Rwlock.create mem ~home:0 in
      let value = Shmem.alloc mem ~home:1 ~words:1 in
      for w = 0 to writers - 1 do
        Machine.spawn m ~on:(w mod 8)
          (Thread.repeat per_writer (fun _ ->
               Rwlock.with_write lock (fun () ->
                   let* v = Shmem.read mem value in
                   let* () = Thread.compute 10 in
                   Shmem.write mem value (v + 1))))
      done;
      Machine.run m;
      Shmem.peek mem value = writers * per_writer)

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Sharers                                                            *)
(* ------------------------------------------------------------------ *)

module ISet = Set.Make (Int)

(* The bitset sharer-set must be observationally equivalent to
   [Set.Make(Int)] over the same universe, across both representations:
   universes of 1–128 processors straddle the 62-member immediate-int
   limit, so the copy-on-write [Bytes] fallback and the boundary sizes
   (61, 62, 63) are all exercised.  Persistence matters too — the
   directory keeps old versions live — so the model replays every
   intermediate set, not just the final one. *)
let prop_sharers_equal_int_set =
  QCheck.Test.make ~name:"sharer bitset = Set.Make(Int)" ~count:300
    QCheck.(
      pair (int_range 1 128) (list (pair bool (int_range 0 1_000_000))))
    (fun (n, ops) ->
      let agree set model =
        Sharers.cardinal set = ISet.cardinal model
        && Sharers.is_empty set = ISet.is_empty model
        && Sharers.to_list set = ISet.elements model
        && (let seen = ref [] in
            Sharers.iter (fun p -> seen := p :: !seen) set;
            List.rev !seen = ISet.elements model)
        && List.for_all
             (fun p -> Sharers.mem p set = ISet.mem p model)
             (List.init n (fun i -> i))
      in
      (* Apply the op stream, keeping every intermediate (set, model)
         pair: checking them all at the end exercises persistence. *)
      let history = ref [ (Sharers.empty ~n, ISet.empty) ] in
      List.iter
        (fun (add, p) ->
          let p = p mod n in
          let set, model = List.hd !history in
          let next =
            if add then (Sharers.add p set, ISet.add p model)
            else (Sharers.remove p set, ISet.remove p model)
          in
          history := next :: !history)
        ops;
      List.for_all (fun (set, model) -> agree set model) !history)

let test_sharers_singleton_and_bounds () =
  List.iter
    (fun n ->
      let s = Sharers.singleton ~n (n - 1) in
      Alcotest.(check (list int)) "singleton members" [ n - 1 ] (Sharers.to_list s);
      Alcotest.(check bool) "member present" true (Sharers.mem (n - 1) s);
      if n > 1 then Alcotest.(check bool) "other absent" false (Sharers.mem 0 s);
      (* Beyond either representation's capacity: must raise, for every
         universe size tested. *)
      let out_of_range =
        match Sharers.add 1000 s with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      Alcotest.(check bool) "add out of range raises" true out_of_range)
    [ 1; 2; 61; 62; 63; 64; 127; 128 ]

let qsuite props = List.map QCheck_alcotest.to_alcotest props

let () =
  Alcotest.run "cm_memory"
    [
      ( "cache",
        [
          Alcotest.test_case "insert lookup" `Quick test_cache_insert_lookup;
          Alcotest.test_case "private copy" `Quick test_cache_private_copy;
          Alcotest.test_case "conflict eviction" `Quick test_cache_conflict_eviction;
          Alcotest.test_case "reinsert updates" `Quick test_cache_reinsert_updates;
          Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
          Alcotest.test_case "set state" `Quick test_cache_set_state;
        ] );
      ( "shmem",
        [
          Alcotest.test_case "alloc homes" `Quick test_shmem_alloc_homes;
          Alcotest.test_case "unallocated" `Quick test_shmem_unallocated;
          Alcotest.test_case "bad geometry" `Quick test_shmem_bad_geometry;
          Alcotest.test_case "read after write" `Quick test_shmem_read_after_write_local;
          Alcotest.test_case "zero initialized" `Quick test_shmem_zero_initialized;
          Alcotest.test_case "cross-processor visibility" `Quick test_shmem_cross_processor_visibility;
          Alcotest.test_case "peek poke" `Quick test_shmem_peek_poke;
          Alcotest.test_case "coherence kinds refuse faults" `Quick
            test_shmem_coherence_refuses_faults;
          Alcotest.test_case "peek sees dirty" `Quick test_shmem_peek_sees_dirty_copy;
          Alcotest.test_case "read block" `Quick test_shmem_read_block;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "hit no traffic" `Quick test_shmem_hit_no_traffic;
          Alcotest.test_case "read miss messages" `Quick test_shmem_read_miss_messages;
          Alcotest.test_case "write invalidates readers" `Quick test_shmem_write_invalidates_readers;
          Alcotest.test_case "write-shared pingpong" `Quick test_shmem_write_shared_pingpong;
          Alcotest.test_case "upgrade cheaper" `Quick test_shmem_upgrade_cheaper_than_miss;
          Alcotest.test_case "eviction writeback" `Quick test_shmem_eviction_writeback_preserves_values;
          Alcotest.test_case "stall holds cpu" `Quick test_shmem_stall_holds_cpu;
          Alcotest.test_case "no remote cpu use" `Quick test_shmem_remote_access_uses_no_remote_cpu;
          Alcotest.test_case "rmw returns old" `Quick test_shmem_rmw_returns_old;
          Alcotest.test_case "rmw atomic counter" `Quick test_shmem_rmw_atomic_counter;
        ]
        @ qsuite [ prop_shmem_single_writer; prop_shmem_sequential_semantics ] );
      ( "sharers",
        [ Alcotest.test_case "singleton and bounds" `Quick test_sharers_singleton_and_bounds ]
        @ qsuite [ prop_sharers_equal_int_set ] );
      ( "lock",
        [
          Alcotest.test_case "uncontended" `Quick test_lock_uncontended;
          Alcotest.test_case "mutual exclusion" `Quick test_lock_mutual_exclusion;
          Alcotest.test_case "contention traffic" `Quick test_lock_contention_generates_traffic;
        ] );
      ( "rwlock",
        [
          Alcotest.test_case "readers share" `Quick test_rwlock_readers_share;
          Alcotest.test_case "writer excludes" `Quick test_rwlock_writer_excludes;
          Alcotest.test_case "write waits" `Quick test_rwlock_write_waits_for_readers;
        ]
        @ qsuite [ prop_rwlock_counter_correct ] );
    ]

