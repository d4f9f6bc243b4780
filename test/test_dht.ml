(* Tests for the distributed hash table, including the adaptive
   mechanism selection it showcases. *)

open Cm_machine
open Cm_apps
open Thread.Infix

let env ?(n = 12) () = Sysenv.make (Machine.create ~seed:23 ~n_procs:n ~costs:Costs.software ())

let node_procs = Array.init 6 (fun i -> i)

let all_modes =
  [
    ("rpc", Dht.Messaging Cm_core.Prelude.Rpc);
    ("migrate", Dht.Messaging Cm_core.Prelude.Migrate);
    ("adaptive", Dht.Adaptive);
    ("shared_memory", Dht.Shared_memory);
  ]

let run_thread ?(on = 8) e body =
  let finished = ref false in
  Machine.spawn e.Sysenv.machine ~on ~on_exit:(fun () -> finished := true) body;
  Machine.run e.Sysenv.machine;
  Alcotest.(check bool) "thread finished" true !finished

let test_put_get_roundtrip () =
  List.iter
    (fun (name, mode) ->
      let e = env () in
      let table = Dht.create e ~buckets:16 ~mode ~node_procs () in
      let results = ref [] in
      run_thread e
        (let* () = Dht.put table ~key:10 ~value:100 in
         let* () = Dht.put table ~key:20 ~value:200 in
         let* () = Dht.put table ~key:10 ~value:111 in
         let* a = Dht.get table 10 in
         let* b = Dht.get table 20 in
         let* c = Dht.get table 30 in
         results := [ a; b; c ];
         Thread.return ());
      Alcotest.(check (list (option int)))
        (name ^ ": get results")
        [ Some 111; Some 200; None ]
        !results;
      Alcotest.(check (list (pair int int)))
        (name ^ ": contents")
        [ (10, 111); (20, 200) ]
        (Dht.contents table))
    all_modes

let test_range_sum () =
  List.iter
    (fun (name, mode) ->
      let e = env () in
      let table = Dht.create e ~buckets:8 ~mode ~node_procs () in
      let keys = List.init 30 (fun i -> i * 7) in
      let total = ref (-1) in
      run_thread e
        (let* () =
           Thread.iter_list (fun k -> Dht.put table ~key:k ~value:k) keys
         in
         let* s = Dht.range_sum table ~first_bucket:0 ~n_buckets:8 in
         total := s;
         Thread.return ());
      Alcotest.(check int)
        (name ^ ": full range sums everything")
        (List.fold_left ( + ) 0 keys)
        !total)
    all_modes

let test_concurrent_puts () =
  List.iter
    (fun (name, mode) ->
      let e = env () in
      let table = Dht.create e ~buckets:32 ~bucket_capacity:128 ~mode ~node_procs () in
      let threads = 4 and per_thread = 25 in
      for th = 0 to threads - 1 do
        Machine.spawn e.Sysenv.machine ~on:(6 + th)
          (Thread.repeat per_thread (fun i ->
               let key = (th * 1000) + i in
               Dht.put table ~key ~value:(key * 2)))
      done;
      Machine.run e.Sysenv.machine;
      Alcotest.(check int) (name ^ ": all entries present") (threads * per_thread)
        (Dht.size table);
      List.iter
        (fun (k, v) -> Alcotest.(check int) (name ^ ": value") (2 * k) v)
        (Dht.contents table))
    all_modes

let test_bucket_full () =
  let e = env () in
  let table = Dht.create e ~buckets:1 ~bucket_capacity:3 ~mode:(Dht.Messaging Cm_core.Prelude.Rpc)
      ~node_procs () in
  let failed = ref false in
  Machine.spawn e.Sysenv.machine ~on:8
    (let* () = Dht.put table ~key:1 ~value:1 in
     let* () = Dht.put table ~key:2 ~value:2 in
     let* () = Dht.put table ~key:3 ~value:3 in
     Dht.put table ~key:4 ~value:4);
  (* The overflow raises inside a simulation event and surfaces from the
     run loop. *)
  (try Machine.run e.Sysenv.machine with Failure _ -> failed := true);
  Alcotest.(check bool) "overflow rejected" true !failed

let test_modes_agree () =
  let final (_, mode) =
    let e = env () in
    let table = Dht.create e ~buckets:16 ~mode ~node_procs () in
    run_thread e
      (Thread.repeat 60 (fun i ->
           let key = i * 13 mod 97 in
           Dht.put table ~key ~value:(i * i)));
    Dht.contents table
  in
  match List.map final all_modes with
  | first :: rest ->
    List.iter (fun c -> Alcotest.(check (list (pair int int))) "same contents" first c) rest
  | [] -> ()

let test_adaptive_learns_per_site () =
  let e = env ~n:16 () in
  let table = Dht.create e ~buckets:12 ~mode:Dht.Adaptive ~node_procs () in
  run_thread e
    (let* () =
       Thread.repeat 40 (fun i -> Dht.put table ~key:(i * 3) ~value:i)
     in
     let* () =
       Thread.repeat 40 (fun i -> Thread.ignore_m (Dht.get table (i * 3 mod 120)))
     in
     Thread.repeat 15 (fun _ ->
         Thread.ignore_m (Dht.range_sum table ~first_bucket:0 ~n_buckets:12)));
  List.iter
    (fun (name, estimate, samples) ->
      Alcotest.(check bool) (name ^ " sampled") true (samples > 5);
      match name with
      | "dht.get" | "dht.put" ->
        Alcotest.(check bool) (name ^ " learned isolation") true (estimate < 1.)
      | "dht.range_sum" ->
        Alcotest.(check bool) (name ^ " learned chaining") true (estimate >= 1.)
      | _ -> Alcotest.fail "unexpected site")
    (Dht.adaptive_report table)

let test_adaptive_traffic_between_static_extremes () =
  (* On a point-lookup workload the adaptive table should not send more
     traffic than always-migrate does. *)
  let words mode =
    let e = env () in
    let table = Dht.create e ~buckets:16 ~mode ~node_procs () in
    run_thread e
      (let* () = Thread.repeat 30 (fun i -> Dht.put table ~key:i ~value:i) in
       Thread.repeat 60 (fun i -> Thread.ignore_m (Dht.get table (i mod 30))));
    Network.total_words e.Sysenv.machine.Machine.net
  in
  let rpc = words (Dht.Messaging Cm_core.Prelude.Rpc) in
  let migrate = words (Dht.Messaging Cm_core.Prelude.Migrate) in
  let adaptive = words Dht.Adaptive in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive (%d) <= 1.1 * min(rpc=%d, migrate=%d)" adaptive rpc migrate)
    true
    (float_of_int adaptive <= 1.1 *. float_of_int (min rpc migrate))

let test_sm_gets_use_no_bucket_cpu_after_warm () =
  (* After the lock line and bucket are cached, repeated gets of the
     same key from one requester stop consuming bucket-home CPU. *)
  let e = env () in
  let table = Dht.create e ~buckets:4 ~mode:Dht.Shared_memory ~node_procs:[| 0; 1; 2; 3 |] () in
  run_thread e
    (let* () = Dht.put table ~key:5 ~value:50 in
     Thread.repeat 20 (fun _ -> Thread.ignore_m (Dht.get table 5)));
  for p = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "bucket proc %d unused" p)
      0
      (Processor.busy_cycles (Machine.proc e.Sysenv.machine p))
  done

let test_validation () =
  let e = env () in
  Alcotest.check_raises "no buckets" (Invalid_argument "Dht.create: buckets must be positive")
    (fun () ->
      ignore (Dht.create e ~buckets:0 ~mode:Dht.Shared_memory ~node_procs ()));
  List.iter
    (fun (name, capacity) ->
      Alcotest.check_raises name
        (Invalid_argument "Dht.create: bucket_capacity must be positive")
        (fun () ->
          ignore
            (Dht.create e ~bucket_capacity:capacity ~mode:(Dht.Messaging Cm_core.Prelude.Rpc)
               ~node_procs ())))
    [ ("zero capacity", 0); ("negative capacity", -3) ];
  let table = Dht.create e ~buckets:4 ~mode:Dht.Shared_memory ~node_procs () in
  Alcotest.check_raises "empty range" (Invalid_argument "Dht.range_sum: empty range") (fun () ->
      let _ : int Thread.t = Dht.range_sum table ~first_bucket:0 ~n_buckets:0 in
      ())

let model_contents model = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])

let prop_dht_matches_hashtbl =
  QCheck.Test.make ~name:"dht agrees with Hashtbl (all modes)" ~count:20
    QCheck.(
      pair (int_range 0 3) (list_of_size Gen.(5 -- 60) (triple (int_range 0 40) small_nat bool)))
    (fun (mode_idx, ops) ->
      let _, mode = List.nth all_modes mode_idx in
      let e = env () in
      let table = Dht.create e ~buckets:8 ~bucket_capacity:128 ~mode ~node_procs () in
      let model = Hashtbl.create 16 in
      let ok = ref true in
      run_thread e
        (Thread.iter_list
           (fun (key, value, is_put) ->
             if is_put then begin
               Hashtbl.replace model key value;
               Dht.put table ~key ~value
             end
             else
               let* got = Dht.get table key in
               if got <> Hashtbl.find_opt model key then ok := false;
               Thread.return ())
           ops);
      !ok
      && Dht.contents table = model_contents model)

(* ------------------------------------------------------------------ *)
(* Buckets grown on demand                                            *)
(* ------------------------------------------------------------------ *)

(* The modes whose buckets are host arrays that grow with their data. *)
let growing_modes =
  [
    ("rpc", Dht.Messaging Cm_core.Prelude.Rpc);
    ("migrate", Dht.Messaging Cm_core.Prelude.Migrate);
    ("adaptive", Dht.Adaptive);
  ]

(* Runs the machine until it is idle: [true] when it stopped on a
   "bucket full" failure raised by a simulated put. *)
let run_until_full e =
  match Machine.run e.Sysenv.machine with
  | () -> false
  | exception Failure msg when msg = "Dht.put: bucket full" -> true

(* [n] keys that are not in [model] and hash to bucket [b]. *)
let fresh_keys_in table model b n =
  let rec go k acc n =
    if n = 0 then List.rev acc
    else if Dht.bucket_of_key table k = b && not (Hashtbl.mem model k) then go (k + 1) (k :: acc) (n - 1)
    else go (k + 1) acc n
  in
  go 1_000 [] n

(* Random interleavings of direct preloads and simulated puts against a
   Hashtbl model.  "bucket full" must be raised exactly when a new key
   reaches a bucket already holding [capacity] keys; a failed simulated
   put ends the sequence, since the event that raised it never finished.
   A final phase has four requesters concurrently put new keys into
   one bucket until it is full: with a capacity above the initial
   storage, the bucket grows while puts are in flight, and every one of
   them must land. *)
let prop_growth_matches_model =
  QCheck.Test.make ~name:"grown buckets agree with Hashtbl" ~count:60
    QCheck.(
      triple (int_range 0 2)
        (pair (int_range 1 4) (int_range 1 40))
        (list_of_size Gen.(0 -- 150) (triple bool (int_range 0 199) small_nat)))
    (fun (mode_idx, (buckets, capacity), ops) ->
      let _, mode = List.nth growing_modes mode_idx in
      let e = env () in
      let table = Dht.create e ~buckets ~bucket_capacity:capacity ~mode ~node_procs () in
      let model = Hashtbl.create 64 in
      let held b =
        Hashtbl.fold (fun k _ n -> if Dht.bucket_of_key table k = b then n + 1 else n) model 0
      in
      let full key = (not (Hashtbl.mem model key)) && held (Dht.bucket_of_key table key) >= capacity in
      let rec apply = function
        | [] -> true
        | (simulated, key, value) :: rest ->
          let expect_full = full key in
          let raised =
            if simulated then begin
              Machine.spawn e.Sysenv.machine ~on:(6 + (key mod 6)) (Dht.put table ~key ~value);
              run_until_full e
            end
            else
              match Dht.preload table ~key ~value with
              | () -> false
              | exception Failure msg when msg = "Dht.preload: bucket full" -> true
          in
          if raised <> expect_full then
            QCheck.Test.fail_reportf "key %d: bucket full raised %b, expected %b" key raised
              expect_full;
          if not raised then Hashtbl.replace model key value;
          if raised && simulated then false else apply rest
      in
      let completed = apply ops in
      if completed then begin
        let b = Dht.bucket_of_key table 0 in
        let keys = fresh_keys_in table model b (capacity - held b) in
        for th = 0 to 3 do
          let mine = List.filteri (fun i _ -> i mod 4 = th) keys in
          Machine.spawn e.Sysenv.machine ~on:(6 + th)
            (Thread.iter_list (fun k -> Dht.put table ~key:k ~value:(k + 1)) mine)
        done;
        if run_until_full e then QCheck.Test.fail_report "concurrent puts overflowed";
        List.iter (fun k -> Hashtbl.replace model k (k + 1)) keys
      end;
      Dht.contents table = model_contents model)

(* A deterministic instance of the concurrent phase above: one empty
   bucket of capacity 40 filled by four requesters at once, so it grows
   twice with puts in flight. *)
let test_concurrent_growth () =
  List.iter
    (fun (name, mode) ->
      let e = env () in
      let table = Dht.create e ~buckets:1 ~bucket_capacity:40 ~mode ~node_procs () in
      for th = 0 to 3 do
        Machine.spawn e.Sysenv.machine ~on:(6 + th)
          (Thread.repeat 10 (fun i ->
               let key = (th * 100) + i in
               Dht.put table ~key ~value:(-key)))
      done;
      Machine.run e.Sysenv.machine;
      Alcotest.(check int) (name ^ ": all 40 puts landed") 40 (Dht.size table);
      List.iter (fun (k, v) -> Alcotest.(check int) (name ^ ": value") (-k) v) (Dht.contents table))
    growing_modes

(* A put is charged [bucket_work] of the entry count at the home when
   its body runs, whatever the mechanism.  One bucket homed at 1 holds
   three keys; a requester on 0 puts a fourth while, in one of the two
   runs, a local put on 1 adds another entry after the request has left
   the requester but before it reaches the home, so the home's CPU is
   idle again when it arrives.  The in-flight entry
   must cost the remote put exactly 6 more cycles (bucket_work n is
   40 + 6n), under rpc and adaptive as under migrate. *)
let in_flight_put_latency mode ~concurrent =
  let e = env ~n:4 () in
  let m = e.Sysenv.machine in
  let table = Dht.create e ~buckets:1 ~mode ~node_procs:[| 1 |] () in
  List.iter (fun k -> Dht.preload table ~key:k ~value:k) [ 1; 2; 3 ];
  let latency = ref (-1) and local_done = ref (-1) in
  Machine.spawn m ~on:0 (fun c k ->
      let t0 = Machine.now m in
      Dht.put table ~key:100 ~value:100 c (fun () ->
          latency := Machine.now m - t0;
          k ()));
  if concurrent then
    Machine.spawn m ~on:1
      (let* () = Dht.put table ~key:200 ~value:200 in
       local_done := Machine.now m;
       Thread.return ());
  Machine.run m;
  (!latency, !local_done, Dht.size table)

let test_in_flight_put_charged_at_home () =
  let costs = Costs.software in
  let left_requester = costs.Costs.forwarding_check in
  let reaches_home = left_requester + Costs.send_pipeline costs ~words:8 in
  List.iter
    (fun (name, mode) ->
      let alone, _, n_alone = in_flight_put_latency mode ~concurrent:false in
      let raced, local_done, n_raced = in_flight_put_latency mode ~concurrent:true in
      Alcotest.(check (pair int int)) (name ^ ": entries") (4, 5) (n_alone, n_raced);
      Alcotest.(check bool)
        (Printf.sprintf "%s: local put done at %d, in (%d, %d)" name local_done left_requester
           reaches_home)
        true
        (local_done > left_requester && local_done < reaches_home);
      Alcotest.(check int)
        (name ^ ": charged the count at the home")
        6 (raced - alone))
    [
      ("rpc", Dht.Messaging Cm_core.Prelude.Rpc);
      ("migrate", Dht.Messaging Cm_core.Prelude.Migrate);
      ("adaptive", Dht.Adaptive);
    ]

(* Bucket storage follows the data: 20,000 keys in 1,024 buckets of
   capacity 64 (19.5 keys per bucket) cost at most twice their data
   words — the count word per bucket plus a (key, value) pair per key.
   Buckets preallocated at capacity would cost about 3.3 times. *)
let test_table_sized_to_data () =
  let keys = 20_000 and buckets = 1_024 in
  let e = env ~n:24 () in
  let before = Obj.reachable_words (Obj.repr e) in
  let table =
    Dht.create e ~buckets ~bucket_capacity:64 ~mode:(Dht.Messaging Cm_core.Prelude.Rpc)
      ~node_procs:(Array.init 16 Fun.id) ()
  in
  for k = 0 to keys - 1 do
    Dht.preload table ~key:k ~value:k
  done;
  let table_words = Obj.reachable_words (Obj.repr (e, table)) - before in
  let data_words = (2 * keys) + buckets in
  Alcotest.(check bool)
    (Printf.sprintf "table %d words <= 2 x %d data words" table_words data_words)
    true
    (table_words <= 2 * data_words)

(* ------------------------------------------------------------------ *)
(* Retention floor on the RPC path                                    *)
(* ------------------------------------------------------------------ *)

(* Every RPC is served by a fresh thread.  Run the quick-size Zipf
   table in RPC mode to two horizons and compare the live heap with each
   machine still reachable: the longer run may hold only what its
   pools grew to, not a thread context per served request. *)
let live_words_after_rpc_run ~horizon =
  let machine = Machine.create ~seed:42 ~n_procs:24 ~costs:Costs.software () in
  let e = Sysenv.make machine in
  let keys = 20_000 in
  let table =
    Dht.create e ~buckets:1_024 ~mode:(Dht.Messaging Cm_core.Prelude.Rpc)
      ~node_procs:(Array.init 16 Fun.id) ()
  in
  for k = 0 to keys - 1 do
    Dht.preload table ~key:k ~value:k
  done;
  let zipf = Cm_engine.Zipf.create ~s:1.3 ~n:keys in
  let requests = ref 0 in
  let request _i =
    let* r = Thread.rng in
    incr requests;
    let key = Cm_engine.Zipf.sample zipf r in
    if Cm_engine.Rng.int r 10 < 8 then Thread.ignore_m (Dht.get table key)
    else Dht.put table ~key ~value:key
  in
  let (_ : Cm_workload.Metrics.t) =
    Cm_workload.Driver.run machine
      { Cm_workload.Driver.requesters = 8; first_proc = 16; think = 0; warmup = horizon / 5;
        horizon }
      request
  in
  Gc.full_major ();
  let live = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity (machine, table));
  (live, !requests)

let test_rpc_retention_floor () =
  let live1, req1 = live_words_after_rpc_run ~horizon:100_000 in
  let live2, req2 = live_words_after_rpc_run ~horizon:400_000 in
  Alcotest.(check bool) "the longer run served more requests" true (req2 > req1 + 1_000);
  let per_request = float_of_int (live2 - live1) /. float_of_int (req2 - req1) in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f live words per extra request < 1" per_request)
    true (per_request < 1.0)

let () =
  Alcotest.run "cm_dht"
    [
      ( "dht",
        [
          Alcotest.test_case "put get roundtrip" `Quick test_put_get_roundtrip;
          Alcotest.test_case "range sum" `Quick test_range_sum;
          Alcotest.test_case "concurrent puts" `Quick test_concurrent_puts;
          Alcotest.test_case "bucket full" `Quick test_bucket_full;
          Alcotest.test_case "modes agree" `Quick test_modes_agree;
          Alcotest.test_case "validation" `Quick test_validation;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_dht_matches_hashtbl ] );
      ( "growth",
        [
          Alcotest.test_case "concurrent growth" `Quick test_concurrent_growth;
          Alcotest.test_case "in-flight put charged at home" `Quick
            test_in_flight_put_charged_at_home;
          Alcotest.test_case "sized to data" `Quick test_table_sized_to_data;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_growth_matches_model ] );
      ( "adaptive-dht",
        [
          Alcotest.test_case "learns per site" `Quick test_adaptive_learns_per_site;
          Alcotest.test_case "traffic near best" `Quick test_adaptive_traffic_between_static_extremes;
          Alcotest.test_case "sm warm gets free" `Quick test_sm_gets_use_no_bucket_cpu_after_warm;
        ] );
      ( "retention",
        [ Alcotest.test_case "rpc retention floor" `Quick test_rpc_retention_floor ] );
    ]
