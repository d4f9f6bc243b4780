(* Tests for the applications: the bitonic counting network and the
   distributed B-link tree, under all three remote-access mechanisms,
   and the social graph's storage and walks. *)

open Cm_machine
open Cm_apps
open Thread.Infix

let costs = Costs.software

let env ?(n = 32) ?(seed = 11) () = Sysenv.make (Machine.create ~seed ~n_procs:n ~costs ())

(* ------------------------------------------------------------------ *)
(* Balancer_net                                                       *)
(* ------------------------------------------------------------------ *)

let test_net_shape () =
  let net = Balancer_net.bitonic 8 in
  Alcotest.(check int) "width" 8 (Balancer_net.width net);
  Alcotest.(check int) "24 balancers" 24 (Balancer_net.n_balancers net);
  Alcotest.(check int) "6 stages" 6 (Balancer_net.depth net)

let test_net_shape_other_widths () =
  List.iter
    (fun (w, depth) ->
      let net = Balancer_net.bitonic w in
      Alcotest.(check int) (Printf.sprintf "width %d depth" w) depth (Balancer_net.depth net);
      Alcotest.(check int)
        (Printf.sprintf "width %d balancers" w)
        (w / 2 * depth)
        (Balancer_net.n_balancers net))
    [ (2, 1); (4, 3); (8, 6); (16, 10) ]

let test_net_bad_width () =
  List.iter
    (fun w ->
      Alcotest.check_raises
        (Printf.sprintf "width %d rejected" w)
        (Invalid_argument "Balancer_net.bitonic: width must be a power of two >= 2")
        (fun () -> ignore (Balancer_net.bitonic w)))
    [ 0; 1; 3; 6; 12 ]

let test_net_layers_within_depth () =
  let net = Balancer_net.bitonic 8 in
  for b = 0 to Balancer_net.n_balancers net - 1 do
    let l = Balancer_net.layer net b in
    Alcotest.(check bool) "layer in range" true (l >= 0 && l < Balancer_net.depth net)
  done;
  (* Four balancers per layer. *)
  let per_layer = Array.make (Balancer_net.depth net) 0 in
  for b = 0 to Balancer_net.n_balancers net - 1 do
    let l = Balancer_net.layer net b in
    per_layer.(l) <- per_layer.(l) + 1
  done;
  Array.iter (fun c -> Alcotest.(check int) "4 per layer" 4 c) per_layer

let test_net_every_exit_has_feeder () =
  let net = Balancer_net.bitonic 8 in
  for w = 0 to 7 do
    let b = Balancer_net.feeder_of_exit net w in
    let top, bot = Balancer_net.outputs net b in
    Alcotest.(check bool) "feeder feeds exit" true
      (top = Balancer_net.Exit w || bot = Balancer_net.Exit w)
  done

let prop_net_step_property =
  QCheck.Test.make ~name:"bitonic step property under arbitrary sequential input" ~count:60
    QCheck.(pair (int_range 1 3) (list_of_size Gen.(1 -- 300) (int_range 0 1000)))
    (fun (log_w, wires) ->
      let w = 2 lsl log_w in
      let net = Balancer_net.bitonic w in
      let sim = Balancer_net.simulator net in
      let counts = Array.make w 0 in
      List.iter
        (fun wire ->
          let out = Balancer_net.route sim (wire mod w) in
          counts.(out) <- counts.(out) + 1)
        wires;
      Balancer_net.step_property ~counts)

(* ------------------------------------------------------------------ *)
(* Counting network (simulated)                                       *)
(* ------------------------------------------------------------------ *)

(* Runs [requesters] threads of [per_thread] traversals each and
   returns the network with every value the traversals returned. *)
let run_counting ~mode ~requesters ~per_thread ~think =
  (* 24 balancer processors + one per requester. *)
  let e = env ~n:(24 + requesters) () in
  let cn = Counting_network.create e mode in
  let remaining = ref requesters in
  let values = ref [] in
  for r = 0 to requesters - 1 do
    Machine.spawn e.Sysenv.machine ~on:(24 + r)
      ~on_exit:(fun () -> decr remaining)
      (Thread.repeat per_thread (fun _ ->
           let* v = Counting_network.traverse cn ~input_wire:(r mod 8) in
           values := v :: !values;
           if think > 0 then Thread.sleep think else Thread.return ()))
  done;
  Machine.run e.Sysenv.machine;
  Alcotest.(check int) "all requesters finished" 0 !remaining;
  (cn, !values)

let check_counting_correct mode () =
  let requesters = 6 and per_thread = 8 in
  let cn, values = run_counting ~mode ~requesters ~per_thread ~think:0 in
  let total = requesters * per_thread in
  Alcotest.(check int) "tokens delivered" total (Counting_network.tokens_delivered cn);
  Alcotest.(check bool) "step property" true (Counting_network.satisfies_step_property cn);
  (* Shared counting: the values handed out are exactly 0 .. total-1. *)
  Alcotest.(check (list int)) "gap-free distinct range" (List.init total (fun i -> i))
    (List.sort compare values)

let test_counting_migrate_correct = check_counting_correct (Counting_network.Messaging Cm_core.Prelude.Migrate)

let test_counting_rpc_correct = check_counting_correct (Counting_network.Messaging Cm_core.Prelude.Rpc)

let test_counting_sm_correct = check_counting_correct Counting_network.Shared_memory

let test_counting_with_think_time () =
  let cn, _values =
    run_counting
      ~mode:(Counting_network.Messaging Cm_core.Prelude.Migrate)
      ~requesters:4 ~per_thread:3 ~think:5000
  in
  Alcotest.(check bool) "step property" true (Counting_network.satisfies_step_property cn)

let test_counting_migrate_message_pattern () =
  (* One token, one requester: 6 balancer hops + 1 counter hop + 1
     return = 8 messages under computation migration. *)
  let e = env ~n:25 () in
  let cn = Counting_network.create e (Counting_network.Messaging Cm_core.Prelude.Migrate) in
  Machine.spawn e.Sysenv.machine ~on:24
    (Thread.ignore_m (Counting_network.traverse cn ~input_wire:0));
  Machine.run e.Sysenv.machine;
  let migrates = Network.messages_of_kind e.Sysenv.machine.Machine.net "migrate" in
  let returns = Network.messages_of_kind e.Sysenv.machine.Machine.net "migrate_return" in
  Alcotest.(check bool) "6-7 hops (first balancer may be local)" true (migrates >= 6 && migrates <= 7);
  Alcotest.(check int) "one return" 1 returns

let test_counting_rpc_twice_the_messages () =
  let msgs mode =
    let e = env ~n:26 () in
    let cn = Counting_network.create e mode in
    for r = 0 to 1 do
      Machine.spawn e.Sysenv.machine ~on:(24 + r)
        (Thread.repeat 4 (fun _ -> Thread.ignore_m (Counting_network.traverse cn ~input_wire:r)))
    done;
    Machine.run e.Sysenv.machine;
    Network.total_messages e.Sysenv.machine.Machine.net
  in
  let rpc = msgs (Counting_network.Messaging Cm_core.Prelude.Rpc) in
  let mig = msgs (Counting_network.Messaging Cm_core.Prelude.Migrate) in
  Alcotest.(check bool)
    (Printf.sprintf "rpc (%d) ~2x migrate (%d)" rpc mig)
    true
    (float_of_int rpc > 1.6 *. float_of_int mig)

let test_counting_sm_bandwidth_highest () =
  let words mode =
    let e = env ~n:28 () in
    let cn = Counting_network.create e mode in
    for r = 0 to 3 do
      Machine.spawn e.Sysenv.machine ~on:(24 + r)
        (Thread.repeat 6 (fun _ -> Thread.ignore_m (Counting_network.traverse cn ~input_wire:r)))
    done;
    Machine.run e.Sysenv.machine;
    Network.total_words e.Sysenv.machine.Machine.net
  in
  let sm = words Counting_network.Shared_memory in
  let mig = words (Counting_network.Messaging Cm_core.Prelude.Migrate) in
  Alcotest.(check bool) (Printf.sprintf "sm (%d) > migrate (%d)" sm mig) true (sm > mig)

let test_counting_bad_wire () =
  let e = env ~n:25 () in
  let cn = Counting_network.create e (Counting_network.Messaging Cm_core.Prelude.Migrate) in
  Alcotest.check_raises "bad wire" (Invalid_argument "Counting_network.traverse: bad input wire")
    (fun () ->
      let _ : int Thread.t = Counting_network.traverse cn ~input_wire:9 in
      ())

(* ------------------------------------------------------------------ *)
(* Btree_node (pure)                                                  *)
(* ------------------------------------------------------------------ *)

let test_node_find_child_index () =
  let keys = [| 10; 20; 30; 40; 0; 0 |] in
  Alcotest.(check int) "below first" 0 (Btree_node.find_child_index ~keys ~nkeys:4 ~key:5);
  Alcotest.(check int) "equal first" 0 (Btree_node.find_child_index ~keys ~nkeys:4 ~key:10);
  Alcotest.(check int) "middle" 2 (Btree_node.find_child_index ~keys ~nkeys:4 ~key:25);
  Alcotest.(check int) "equal last" 3 (Btree_node.find_child_index ~keys ~nkeys:4 ~key:40);
  Alcotest.check_raises "above high"
    (Invalid_argument "Btree_node.find_child_index: key above high key") (fun () ->
      ignore (Btree_node.find_child_index ~keys ~nkeys:4 ~key:41))

let test_node_member_insert () =
  let keys = Array.make 8 0 in
  keys.(0) <- 5;
  keys.(1) <- 9;
  Alcotest.(check bool) "member yes" true (Btree_node.member ~keys ~nkeys:2 ~key:9);
  Alcotest.(check bool) "member no" false (Btree_node.member ~keys ~nkeys:2 ~key:7);
  let pos = Btree_node.insertion_point ~keys ~nkeys:2 ~key:7 in
  Alcotest.(check int) "insertion point" 1 pos;
  Btree_node.insert_at ~keys ~nkeys:2 ~pos 7;
  Alcotest.(check (list int)) "inserted" [ 5; 7; 9 ] [ keys.(0); keys.(1); keys.(2) ]

let test_node_split_point () =
  Alcotest.(check int) "odd" 3 (Btree_node.split_point ~nkeys:5);
  Alcotest.(check int) "even" 3 (Btree_node.split_point ~nkeys:6)

let test_plan_shapes_match_paper () =
  let keys = List.init 10000 (fun i -> i * 3) in
  (* Fanout 100, fill 0.7: the paper's 3-child root. *)
  let plan = Btree_node.build_plan ~keys ~fanout:100 ~fill:0.7 in
  Alcotest.(check int) "height 3" 3 (Btree_node.plan_height plan);
  Alcotest.(check int) "root has 3 children" 3 (Btree_node.plan_root_children plan);
  (* Fanout 10: a deeper tree with a small root (paper: ~4 children). *)
  let plan10 = Btree_node.build_plan ~keys ~fanout:10 ~fill:0.75 in
  Alcotest.(check int) "fanout-10 root children" 3 (Btree_node.plan_root_children plan10);
  Alcotest.(check bool) "fanout-10 much deeper" true (Btree_node.plan_height plan10 >= 5)

let test_plan_preserves_keys () =
  let keys = [ 9; 1; 5; 3; 1; 7; 5 ] in
  let plan = Btree_node.build_plan ~keys ~fanout:4 ~fill:0.5 in
  Alcotest.(check (list int)) "sorted distinct" [ 1; 3; 5; 7; 9 ] (Btree_node.plan_keys plan)

(* Node 0 is an internal root over leaves 1 and 2; [broken] rewrites
   one node of that valid tree. *)
let check_views ?(fanout = 4) broken =
  let nodes =
    [|
      { Btree_node.is_leaf = false; nkeys = 2; high = max_int; right = -1;
        keys = [| 10; max_int |]; children = [| 1; 2 |] };
      { Btree_node.is_leaf = true; nkeys = 2; high = 10; right = 2; keys = [| 5; 10 |];
        children = [||] };
      { Btree_node.is_leaf = true; nkeys = 2; high = max_int; right = -1; keys = [| 15; 20 |];
        children = [||] };
    |]
  in
  List.iter (fun (id, v) -> nodes.(id) <- v nodes.(id)) broken;
  Btree_node.check ~fanout ~root:0 (fun id -> nodes.(id))

let test_node_check_names_violation () =
  let result = Alcotest.(result unit string) in
  Alcotest.check result "valid tree" (Ok ()) (check_views []);
  Alcotest.check result "unsorted keys" (Error "node 1 keys not sorted")
    (check_views [ (1, fun n -> { n with keys = [| 7; 5 |] }) ]);
  Alcotest.check result "wrong high key" (Error "node 1 high 9 <> bound 10")
    (check_views [ (1, fun n -> { n with high = 9 }) ]);
  Alcotest.check result "overfull node" (Error "node 2 overfull")
    (check_views [ (2, fun n -> { n with nkeys = 5; keys = [| 11; 12; 13; 14; 15 |] }) ]);
  Alcotest.check result "unlinked children" (Error "node 0: child 1 not linked to next sibling")
    (check_views [ (1, fun n -> { n with right = -1 }) ])

let test_plan_rejects_bad_fill () =
  let keys = [ 1; 2; 3; 4; 5 ] in
  List.iter
    (fun fill ->
      Alcotest.check_raises
        (Printf.sprintf "fill %g" fill)
        (Invalid_argument "Btree_node.build_plan: fill must be in (0, 1]")
        (fun () -> ignore (Btree_node.build_plan ~keys ~fanout:8 ~fill)))
    [ Float.nan; 0.; -0.5; 1.5; Float.infinity; Float.neg_infinity ];
  (* Through the application's constructor too. *)
  Alcotest.check_raises "Btree.create ~fill:nan"
    (Invalid_argument "Btree_node.build_plan: fill must be in (0, 1]") (fun () ->
      ignore
        (Btree.create (env ()) ~mode:(Btree.Messaging Cm_core.Prelude.Migrate) ~fanout:8
           ~fill:Float.nan ~node_procs:[| 0 |] ~keys ()));
  (* The edges of the range are accepted. *)
  List.iter
    (fun fill ->
      Alcotest.(check (list int))
        (Printf.sprintf "fill %g keeps the keys" fill)
        keys
        (Btree_node.plan_keys (Btree_node.build_plan ~keys ~fanout:8 ~fill)))
    [ 1.; 0.01 ]

let prop_plan_keys_roundtrip =
  QCheck.Test.make ~name:"bulk-load plan preserves key set" ~count:100
    QCheck.(pair (int_range 4 30) (list_of_size Gen.(1 -- 400) (int_range 0 100000)))
    (fun (fanout, keys) ->
      let plan = Btree_node.build_plan ~keys ~fanout ~fill:0.7 in
      Btree_node.plan_keys plan = List.sort_uniq compare keys)

(* ------------------------------------------------------------------ *)
(* B-tree (simulated)                                                 *)
(* ------------------------------------------------------------------ *)

let node_procs n = Array.init n (fun i -> i)

let mk_btree ?(n_procs = 16) ?(fanout = 8) ?(replicate_root = false) ~mode ~keys () =
  let e = env ~n:n_procs ~seed:5 () in
  let tree =
    Btree.create e ~mode ~fanout ~replicate_root ~node_procs:(node_procs (n_procs / 2)) ~keys ()
  in
  (e, tree)

let all_modes =
  [
    ("migrate", Btree.Messaging Cm_core.Prelude.Migrate, false);
    ("rpc", Btree.Messaging Cm_core.Prelude.Rpc, false);
    ("migrate+repl", Btree.Messaging Cm_core.Prelude.Migrate, true);
    ("rpc+repl", Btree.Messaging Cm_core.Prelude.Rpc, true);
    ("shared_memory", Btree.Shared_memory, false);
  ]

let test_btree_lookup_preloaded () =
  List.iter
    (fun (name, mode, replicate_root) ->
      let keys = List.init 200 (fun i -> i * 5) in
      let e, tree = mk_btree ~mode ~replicate_root ~keys () in
      let hits = ref 0 and misses = ref 0 in
      Machine.spawn e.Sysenv.machine ~on:14
        (Thread.iter_list
           (fun k ->
             let* present = Btree.lookup tree k in
             if present then incr hits else incr misses;
             Thread.return ())
           [ 0; 5; 995; 3; 500; 1000; 42 ]);
      Machine.run e.Sysenv.machine;
      Alcotest.(check int) (name ^ ": hits") 4 !hits;
      (* 0, 5, 995, 500 present; 3, 1000, 42 absent *)
      Alcotest.(check int) (name ^ ": misses") 3 !misses)
    all_modes

let test_btree_insert_then_lookup () =
  List.iter
    (fun (name, mode, replicate_root) ->
      let e, tree = mk_btree ~mode ~replicate_root ~keys:[ 1000 ] () in
      let inserted = ref 0 in
      Machine.spawn e.Sysenv.machine ~on:15
        (Thread.iter_list
           (fun k ->
             let* fresh = Btree.insert tree k in
             if fresh then incr inserted;
             Thread.return ())
           [ 5; 3; 9; 3; 7; 5; 100 ]);
      Machine.run e.Sysenv.machine;
      Alcotest.(check int) (name ^ ": distinct inserts") 5 !inserted;
      Alcotest.(check (list int)) (name ^ ": final keys") [ 3; 5; 7; 9; 100; 1000 ]
        (Btree.all_keys tree);
      (match Btree.check_invariants tree with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: invariants: %s" name e))
    all_modes

let test_btree_many_inserts_split_chain () =
  (* Enough sequential inserts through one thread to force splits at
     every level, including root splits. *)
  List.iter
    (fun (name, mode, replicate_root) ->
      let e, tree = mk_btree ~fanout:4 ~mode ~replicate_root ~keys:[ 0 ] () in
      let n = 120 in
      Machine.spawn e.Sysenv.machine ~on:15
        (Thread.repeat n (fun i -> Thread.ignore_m (Btree.insert tree ((i * 37) mod 1000))));
      Machine.run e.Sysenv.machine;
      let expect = List.sort_uniq compare (0 :: List.init n (fun i -> i * 37 mod 1000)) in
      Alcotest.(check (list int)) (name ^ ": keys") expect (Btree.all_keys tree);
      Alcotest.(check bool) (name ^ ": split happened") true (Btree.splits tree > 0);
      Alcotest.(check bool) (name ^ ": tree grew") true (Btree.height tree >= 3);
      (match Btree.check_invariants tree with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: invariants: %s" name e))
    all_modes

let test_btree_concurrent_inserts () =
  List.iter
    (fun (name, mode, replicate_root) ->
      let e, tree = mk_btree ~n_procs:24 ~fanout:4 ~mode ~replicate_root ~keys:[ 500000 ] () in
      let per_thread = 30 and threads = 8 in
      for th = 0 to threads - 1 do
        Machine.spawn e.Sysenv.machine ~on:(12 + th)
          (Thread.repeat per_thread (fun i ->
               Thread.ignore_m (Btree.insert tree ((th * 1009) + (i * 131)))))
      done;
      Machine.run e.Sysenv.machine;
      let expect =
        List.sort_uniq compare
          (500000
          :: List.concat_map
               (fun th -> List.init per_thread (fun i -> (th * 1009) + (i * 131)))
               (List.init threads (fun th -> th)))
      in
      Alcotest.(check (list int)) (name ^ ": all keys present") expect (Btree.all_keys tree);
      (match Btree.check_invariants tree with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: invariants: %s" name e))
    all_modes

let test_btree_concurrent_mixed_workload () =
  List.iter
    (fun (name, mode, replicate_root) ->
      let base_keys = List.init 100 (fun i -> i * 10) in
      let e, tree = mk_btree ~n_procs:24 ~fanout:6 ~mode ~replicate_root ~keys:base_keys () in
      let lookups_wrong = ref 0 in
      for th = 0 to 5 do
        Machine.spawn e.Sysenv.machine ~on:(12 + th)
          (Thread.repeat 20 (fun i ->
               if i mod 2 = 0 then Thread.ignore_m (Btree.insert tree ((th * 211) + i))
               else
                 (* Preloaded keys never disappear (no delete): a lookup
                    for one must always succeed. *)
                 let* present = Btree.lookup tree (((th * 7) + i) mod 100 * 10) in
                 if not present then incr lookups_wrong;
                 Thread.return ()))
      done;
      Machine.run e.Sysenv.machine;
      Alcotest.(check int) (name ^ ": no lost preloaded keys") 0 !lookups_wrong;
      match Btree.check_invariants tree with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: invariants: %s" name e)
    all_modes

let test_btree_migrate_root_bottleneck () =
  (* Without replication every operation visits the root's processor;
     with a replicated root, lookups skip it.  Node placement is
     seed-deterministic, so both runs lay the tree out identically:
     compare per-processor busy cycles directly. *)
  let busy replicate_root =
    let keys = List.init 500 (fun i -> i * 7) in
    let e, tree =
      mk_btree ~n_procs:16 ~fanout:16
        ~mode:(Btree.Messaging Cm_core.Prelude.Migrate)
        ~replicate_root ~keys ()
    in
    for th = 0 to 3 do
      Machine.spawn e.Sysenv.machine ~on:(10 + th)
        (* Uniformly spread lookups so every level-2 node gets work. *)
        (Thread.repeat 25 (fun i -> Thread.ignore_m (Btree.lookup tree (((th * 25) + i) * 139 mod 3500))))
    done;
    Machine.run e.Sysenv.machine;
    Array.init 8 (fun p -> Processor.busy_cycles (Machine.proc e.Sysenv.machine p))
  in
  let without = busy false and with_repl = busy true in
  (* The processor that was hottest without replication (the root's
     home) must cool down once the root is replicated. *)
  let hottest = ref 0 in
  Array.iteri (fun p c -> if c > without.(!hottest) then hottest := p) without;
  ignore (Array.iteri (fun _ _ -> ()) with_repl);
  Alcotest.(check bool)
    (Printf.sprintf "root proc cooler with replication (%d < %d)" with_repl.(!hottest)
       without.(!hottest))
    true
    (with_repl.(!hottest) < without.(!hottest))

let test_btree_modes_agree () =
  (* The same operation sequence must produce the same key set in every
     mode — the annotation changes performance, not semantics. *)
  let final (_, mode, replicate_root) =
    let e, tree = mk_btree ~fanout:6 ~mode ~replicate_root ~keys:[ 50; 60; 70 ] () in
    Machine.spawn e.Sysenv.machine ~on:14
      (Thread.repeat 40 (fun i -> Thread.ignore_m (Btree.insert tree (i * 17 mod 300))));
    Machine.run e.Sysenv.machine;
    Btree.all_keys tree
  in
  match List.map final all_modes with
  | first :: rest -> List.iter (fun keys -> Alcotest.(check (list int)) "same keys" first keys) rest
  | [] -> ()

let test_btree_sm_uses_no_node_cpu_for_lookups () =
  (* Shared-memory lookups never occupy node-home CPUs. *)
  let keys = List.init 300 (fun i -> i * 3) in
  let e, tree = mk_btree ~n_procs:16 ~fanout:16 ~mode:Btree.Shared_memory ~keys () in
  Machine.spawn e.Sysenv.machine ~on:15
    (Thread.repeat 20 (fun i -> Thread.ignore_m (Btree.lookup tree (i * 31))));
  Machine.run e.Sysenv.machine;
  for p = 0 to 7 do
    Alcotest.(check int)
      (Printf.sprintf "node proc %d idle" p)
      0
      (Processor.busy_cycles (Machine.proc e.Sysenv.machine p))
  done

let prop_btree_matches_reference =
  (* Random operation interleavings across modes against a Set model. *)
  QCheck.Test.make ~name:"btree agrees with a reference set (all modes)" ~count:12
    QCheck.(
      pair (int_range 0 4)
        (list_of_size Gen.(10 -- 80) (pair (int_range 0 250) bool)))
    (fun (mode_idx, ops) ->
      let _, mode, replicate_root = List.nth all_modes mode_idx in
      let e, tree = mk_btree ~fanout:5 ~mode ~replicate_root ~keys:[ 1; 2; 3 ] () in
      let model = ref (List.fold_right (fun k s -> k :: s) [ 1; 2; 3 ] []) in
      let wrong = ref 0 in
      Machine.spawn e.Sysenv.machine ~on:15
        (Thread.iter_list
           (fun (key, is_insert) ->
             if is_insert then begin
               model := key :: !model;
               Thread.ignore_m (Btree.insert tree key)
             end
             else
               let* present = Btree.lookup tree key in
               let expected = List.mem key !model in
               if present <> expected then incr wrong;
               Thread.return ())
           ops);
      Machine.run e.Sysenv.machine;
      !wrong = 0
      && Btree.all_keys tree = List.sort_uniq compare !model
      && Btree.check_invariants tree = Ok ())


let prop_counting_concurrent_step_property =
  (* Concurrent traversals through the simulated machine (not just the
     reference simulator) must preserve the step property and gap-free
     counting for any requester/request mix, in every mode. *)
  QCheck.Test.make ~name:"simulated counting network counts (all modes)" ~count:10
    QCheck.(triple (int_range 0 2) (int_range 1 10) (int_range 1 6))
    (fun (mode_idx, requesters, per_thread) ->
      let mode =
        List.nth
          [
            Counting_network.Messaging Cm_core.Prelude.Migrate;
            Counting_network.Messaging Cm_core.Prelude.Rpc;
            Counting_network.Shared_memory;
          ]
          mode_idx
      in
      let e = env ~n:(24 + requesters) ~seed:(requesters + per_thread) () in
      let cn = Counting_network.create e mode in
      let values = ref [] in
      for r = 0 to requesters - 1 do
        Machine.spawn e.Sysenv.machine ~on:(24 + r)
          (Thread.repeat per_thread (fun _ ->
               let* v = Counting_network.traverse cn ~input_wire:(r mod 8) in
               values := v :: !values;
               Thread.return ()))
      done;
      Machine.run e.Sysenv.machine;
      let total = requesters * per_thread in
      Counting_network.tokens_delivered cn = total
      && Counting_network.satisfies_step_property cn
      && List.sort compare !values = List.init total (fun i -> i))

let prop_plan_heights =
  QCheck.Test.make ~name:"bulk-load height matches capacity bound" ~count:50
    QCheck.(pair (int_range 4 40) (int_range 1 2000))
    (fun (fanout, n) ->
      let keys = List.init n (fun i -> i) in
      let plan = Btree_node.build_plan ~keys ~fanout ~fill:0.7 in
      let h = Btree_node.plan_height plan in
      (* Every key must be reachable within the height bound for minimum
         half-full nodes, and the plan must never exceed fanout. *)
      let rec max_keys levels = if levels = 1 then fanout else fanout * max_keys (levels - 1) in
      h >= 1 && n <= max_keys h)

let test_btree_sm_seqlock_mode_correct () =
  (* The seqlock (lock-free readers) ablation must still be correct
     under concurrent inserts and lookups. *)
  let e = env ~n:24 ~seed:31 () in
  let tree =
    Btree.create e ~mode:Btree.Shared_memory ~fanout:5 ~sm_read_mode:Btree_sm.Seqlock
      ~node_procs:(node_procs 12)
      ~keys:[ 1000 ] ()
  in
  let wrong = ref 0 in
  for th = 0 to 5 do
    Machine.spawn e.Sysenv.machine ~on:(12 + th)
      (Thread.repeat 25 (fun i ->
           if i mod 2 = 0 then Thread.ignore_m (Btree.insert tree ((th * 307) + i))
           else
             let* present = Btree.lookup tree 1000 in
             if not present then incr wrong;
             Thread.return ()))
  done;
  Machine.run e.Sysenv.machine;
  Alcotest.(check int) "preloaded key always found" 0 !wrong;
  (match Btree.check_invariants tree with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e);
  let expect =
    List.sort_uniq compare
      (1000
      :: List.concat_map
           (fun th -> List.filteri (fun i _ -> i mod 2 = 0) (List.init 25 (fun i -> (th * 307) + i)))
           (List.init 6 (fun th -> th)))
  in
  Alcotest.(check (list int)) "keys all present" expect (Btree.all_keys tree)

let test_btree_torus_topology () =
  (* The apps must run unchanged on other interconnects. *)
  let machine = Machine.create ~seed:3 ~topology:`Torus ~n_procs:16 ~costs:Costs.software () in
  let e = Sysenv.make machine in
  let tree =
    Btree.create e
      ~mode:(Btree.Messaging Cm_core.Prelude.Migrate)
      ~fanout:8
      ~node_procs:(node_procs 8)
      ~keys:(List.init 100 (fun i -> i * 3))
      ()
  in
  let hits = ref 0 in
  Machine.spawn machine ~on:14
    (Thread.repeat 20 (fun i ->
         let* present = Btree.lookup tree (i * 15) in
         if present then incr hits;
         Thread.return ()));
  Machine.run machine;
  Alcotest.(check int) "every multiple of 15 < 300 found" 20 !hits

(* Digest pins for the message-passing B-tree, recorded on the generic
   [Runtime.call]/[scope] descent before it moved onto method-site
   frames: the frame port must replay it event for event.  48 requesters
   insert into a fanout-4 tree growing from one key on 4 node
   processors while 4 more look keys up, so leaf splits, internal and
   root splits all happen (every root split past the first splits an
   internal node), and under [rpc+repl] so does the [Stale] root-split
   retry (a sibling's root split still in flight). *)
let btree_pins =
  [
    ("migrate", Cm_core.Prelude.Migrate, false, "e6f7765ed8d189087700ff615f1ea922", 202, 5, 0);
    ("rpc", Cm_core.Prelude.Rpc, false, "31464c08013aa4b0fe80e3c7e049d931", 199, 5, 0);
    ("migrate+repl", Cm_core.Prelude.Migrate, true, "41a37d68afcb0aaaa972eca0c96904a7", 205, 5, 0);
    ("rpc+repl", Cm_core.Prelude.Rpc, true, "f8286d67f364d11a6f2e23e031c28c05", 202, 5, 3);
  ]

let test_btree_digest_pins () =
  let retries = ref 0 in
  List.iter
    (fun (name, access, replicate_root, digest, splits, root_splits, propagate_retries) ->
      let n_procs = 64 and nodes = 4 and inserters = 48 in
      let m = Machine.create ~seed:5 ~n_procs ~costs () in
      let tree =
        Btree.create (Sysenv.make m) ~mode:(Btree.Messaging access) ~fanout:4 ~replicate_root
          ~placement_seed:155 ~node_procs:(node_procs nodes) ~keys:[ 500_000 ] ()
      in
      for th = 0 to inserters - 1 do
        Machine.spawn m
          ~on:(nodes + (th mod (n_procs - nodes - 1)))
          (Thread.repeat 8 (fun i -> Thread.ignore_m (Btree.insert tree ((th * 1000) + i))))
      done;
      for th = 0 to 3 do
        Machine.spawn m ~on:(n_procs - 1 - th)
          (Thread.repeat 12 (fun i -> Thread.ignore_m (Btree.lookup tree ((th * 3001) + (i * 997)))))
      done;
      Machine.run m;
      let stat = Cm_engine.Stats.get m.Machine.stats in
      Alcotest.(check string) (name ^ ": digest") digest (Machine.digest m);
      Alcotest.(check int) (name ^ ": splits") splits (stat "btree.splits");
      Alcotest.(check int) (name ^ ": root splits") root_splits (stat "btree.root_splits");
      Alcotest.(check int) (name ^ ": propagate retries") propagate_retries
        (stat "btree.propagate_retries");
      retries := !retries + propagate_retries;
      match Btree.check_invariants tree with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: invariants: %s" name e)
    btree_pins;
  Alcotest.(check bool) "a Stale root-split retry ran" true (!retries > 0)

(* A node visit is charged from the node's key count when the call is
   issued (the caller evaluates the cost), not when the activation
   arrives.  Here a lookup leaves a far processor for the single leaf
   while an insert from a neighbour lands first and takes the leaf from
   3 keys (2 probes) to 4 (3 probes).  The lookup sees the new key, yet
   the leaf's processor is charged exactly what the two operations cost
   alone on the 3-key leaf.  Charging at arrival would fix this stale
   read (ROADMAP item 2), but moves the btree_cp pin and table1's
   golden line. *)
let test_btree_visit_charged_at_issue () =
  let keys = [ 10; 20; 30 ] in
  let leaf_busy ?insert ?lookup keys =
    let m = Machine.create ~seed:9 ~n_procs:16 ~costs () in
    let tree =
      Btree.create (Sysenv.make m) ~mode:(Btree.Messaging Cm_core.Prelude.Migrate) ~fanout:8
        ~node_procs:[| 0 |] ~keys ()
    in
    let found = ref false in
    Option.iter (fun k -> Machine.spawn m ~on:1 (Thread.ignore_m (Btree.insert tree k))) insert;
    Option.iter
      (fun k ->
        Machine.spawn m ~on:15
          (let* present = Btree.lookup tree k in
           found := present;
           Thread.return ()))
      lookup;
    Machine.run m;
    Alcotest.(check int) "one leaf" 1 (Btree.height tree);
    (Processor.busy_cycles (Machine.proc m 0), !found)
  in
  let both, found = leaf_busy ~insert:25 ~lookup:25 keys in
  Alcotest.(check bool) "lookup ran after the insert landed" true found;
  let insert_alone, _ = leaf_busy ~insert:25 keys in
  let lookup_at_issue, _ = leaf_busy ~lookup:25 keys in
  let lookup_at_arrival, _ = leaf_busy ~lookup:25 (25 :: keys) in
  Alcotest.(check bool) "the key count changes the charge" true
    (lookup_at_issue <> lookup_at_arrival);
  Alcotest.(check int) "charged at issue" (insert_alone + lookup_at_issue) both

(* Steady-state allocation floor of the B-tree on method-site frames:
   run a table1-shaped Migrate workload (10,000 keys, fanout 100, 50/50
   lookups and inserts) to two horizons and divide the extra minor words
   by the extra events, which cancels set-up and warm-up.  What remains
   is the driver's per-request closures (about 1.6 words per event).
   Allocation is deterministic, like the run; the generic call/scope
   descent this replaced allocated about 19 words per event here. *)
let btree_minor_words ~horizon =
  let machine = Machine.create ~seed:42 ~n_procs:64 ~costs () in
  let tree =
    Btree.create (Sysenv.make machine) ~mode:(Btree.Messaging Cm_core.Prelude.Migrate)
      ~fanout:100 ~fill:0.7 ~node_procs:(node_procs 48)
      ~keys:(List.init 10_000 (fun i -> i * 7))
      ()
  in
  let request _i =
    let* r = Thread.rng in
    let key = Cm_engine.Rng.int r 70_000 in
    if Cm_engine.Rng.float r 1.0 < 0.5 then Thread.ignore_m (Btree.lookup tree key)
    else Thread.ignore_m (Btree.insert tree key)
  in
  let w0 = Gc.minor_words () in
  let (_ : Cm_workload.Metrics.t) =
    Cm_workload.Driver.run machine
      { Cm_workload.Driver.requesters = 16; first_proc = 48; think = 0; warmup = 10_000; horizon }
      request
  in
  (Gc.minor_words () -. w0, Machine.events_fired machine)

let test_btree_minor_words_floor () =
  let w1, ev1 = btree_minor_words ~horizon:500_000 in
  let w2, ev2 = btree_minor_words ~horizon:4_000_000 in
  Alcotest.(check bool) "the longer run fired more events" true (ev2 > ev1 + 100_000);
  let per_event = (w2 -. w1) /. float_of_int (ev2 - ev1) in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per event < 3" per_event)
    true (per_event < 3.)

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Social graph                                                       *)
(* ------------------------------------------------------------------ *)

(* The graph as plain int arrays, built from the same stream as
   [Social_graph.create]: degrees from [Rng.int], then the Zipf edge
   targets, then the multiplicative-hash homes. *)
let social_reference ~seed ~n ~avg_degree ~skew ~node_procs =
  let rng = Cm_engine.Rng.create ~seed in
  let offsets = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u) + 1 + Cm_engine.Rng.int rng ((2 * avg_degree) - 1)
  done;
  let z = Cm_engine.Zipf.create ~s:skew ~n in
  let edges = Array.init offsets.(n) (fun _ -> Cm_engine.Zipf.sample z rng) in
  let k = Array.length node_procs in
  let homes = Array.init n (fun u -> node_procs.(abs (u * 2654435761) mod k)) in
  (offsets, edges, homes)

let social_node_procs = Array.init 16 (fun i -> i)

let check_social_matches_reference ~seed ~n g =
  let offsets, edges, homes =
    social_reference ~seed ~n ~avg_degree:8 ~skew:0.8 ~node_procs:social_node_procs
  in
  let ctx = Printf.sprintf "seed %d, n %d" seed n in
  Alcotest.(check int) (ctx ^ ": n_users") n (Social_graph.n_users g);
  for u = 0 to n - 1 do
    let d = offsets.(u + 1) - offsets.(u) in
    if Social_graph.degree g u <> d then
      Alcotest.failf "%s: degree %d is %d, expected %d" ctx u (Social_graph.degree g u) d;
    for j = 0 to d - 1 do
      if Social_graph.friend g u j <> edges.(offsets.(u) + j) then
        Alcotest.failf "%s: friend %d of %d is %d, expected %d" ctx j u
          (Social_graph.friend g u j) edges.(offsets.(u) + j)
    done;
    if Social_graph.home g u <> homes.(u) then
      Alcotest.failf "%s: home of %d is %d, expected %d" ctx u (Social_graph.home g u) homes.(u)
  done

let social_graph ?(before = 0) ~seed ~n () =
  let e = env ~n:20 () in
  (* Objects registered ahead of the graph move its id block off 0. *)
  for i = 1 to before do
    ignore (Cm_core.Prelude.make_obj e.Sysenv.prelude ~home:(19 - (i mod 4)) i : int Cm_core.Prelude.obj)
  done;
  (e, Social_graph.create e ~n ~node_procs:social_node_procs ~seed ())

let test_social_matches_reference () =
  List.iter
    (fun seed ->
      List.iter
        (fun n ->
          let _, g = social_graph ~seed ~n () in
          check_social_matches_reference ~seed ~n g)
        [ 1; 2; 4000 ])
    [ 1; 7; 42 ]

(* Four walks from processors 16-19; returns their visited-degree sums
   and the machine's finishing cycle and message count. *)
let run_social_walks (e, g) access =
  let sums = Array.make 4 (-1) in
  for r = 0 to 3 do
    Machine.spawn e.Sysenv.machine ~on:(16 + r)
      (let+ s = Social_graph.walk g ~access ~start:(r * 97 mod Social_graph.n_users g) ~steps:12 in
       sums.(r) <- s)
  done;
  Machine.run e.Sysenv.machine;
  (sums, Machine.now e.Sysenv.machine, Network.total_messages e.Sysenv.machine.Machine.net)

(* A graph whose users are not ids 0..n-1: homes still follow the user
   index, and every visit reaches the same processor, so the simulated
   run is identical to a graph registered first. *)
let test_social_offset_ids () =
  let _, g = social_graph ~before:37 ~seed:7 ~n:4000 () in
  check_social_matches_reference ~seed:7 ~n:4000 g;
  List.iter
    (fun access ->
      let fresh = run_social_walks (social_graph ~seed:7 ~n:4000 ()) access in
      let offset = run_social_walks (social_graph ~before:37 ~seed:7 ~n:4000 ()) access in
      Alcotest.(check bool) "same sums, cycles and messages" true (fresh = offset))
    [ Cm_core.Prelude.Rpc; Cm_core.Prelude.Migrate ]

let test_social_walk_mechanisms_agree () =
  let rpc, _, rpc_msgs = run_social_walks (social_graph ~seed:42 ~n:4000 ()) Cm_core.Prelude.Rpc in
  let mig, _, mig_msgs =
    run_social_walks (social_graph ~seed:42 ~n:4000 ()) Cm_core.Prelude.Migrate
  in
  Alcotest.(check (array int)) "visited-degree sums" rpc mig;
  (* Twelve visits of degree >= 1 each. *)
  Array.iter (fun s -> Alcotest.(check bool) "sum >= steps" true (s >= 12)) rpc;
  Alcotest.(check bool) "migration sends fewer messages" true (mig_msgs < rpc_msgs)

(* Graphs whose values would not fit 32 bits are refused before any
   vector is allocated: the arrays would be 8 GiB and 512 MiB here. *)
let test_social_size_guards () =
  let e = env ~n:20 () in
  let refused ~n ~avg_degree msg =
    let before = Gc.allocated_bytes () in
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Social_graph.create e ~n ~avg_degree ~node_procs:social_node_procs ~seed:1 ()));
    let bytes = Gc.allocated_bytes () -. before in
    if bytes > 65536. then Alcotest.failf "%s: %.0f bytes allocated before refusing" msg bytes
  in
  refused ~n:(1 lsl 31) ~avg_degree:8 "Social_graph.create: n must be below 2^31";
  refused ~n:(1 lsl 27) ~avg_degree:16
    "Social_graph.create: n * (2 * avg_degree - 1) must be below 2^31";
  refused ~n:1 ~avg_degree:max_int
    "Social_graph.create: n * (2 * avg_degree - 1) must be below 2^31";
  Alcotest.(check int) "no user registered" 0
    (Cm_runtime.Objspace.count (Cm_core.Prelude.space e.Sysenv.prelude))

let qsuite props = List.map QCheck_alcotest.to_alcotest props

let () =
  Alcotest.run "cm_apps"
    [
      ( "balancer_net",
        [
          Alcotest.test_case "shape 8" `Quick test_net_shape;
          Alcotest.test_case "other widths" `Quick test_net_shape_other_widths;
          Alcotest.test_case "bad width" `Quick test_net_bad_width;
          Alcotest.test_case "layers" `Quick test_net_layers_within_depth;
          Alcotest.test_case "exit feeders" `Quick test_net_every_exit_has_feeder;
        ]
        @ qsuite [ prop_net_step_property ] );
      ( "counting_network",
        [
          Alcotest.test_case "migrate correct" `Quick test_counting_migrate_correct;
          Alcotest.test_case "rpc correct" `Quick test_counting_rpc_correct;
          Alcotest.test_case "shared memory correct" `Quick test_counting_sm_correct;
          Alcotest.test_case "think time" `Quick test_counting_with_think_time;
          Alcotest.test_case "migrate message pattern" `Quick test_counting_migrate_message_pattern;
          Alcotest.test_case "rpc ~2x messages" `Quick test_counting_rpc_twice_the_messages;
          Alcotest.test_case "sm bandwidth highest" `Quick test_counting_sm_bandwidth_highest;
          Alcotest.test_case "bad wire" `Quick test_counting_bad_wire;
        ] );
      ( "social_graph",
        [
          Alcotest.test_case "matches reference" `Quick test_social_matches_reference;
          Alcotest.test_case "ids offset by earlier objects" `Quick test_social_offset_ids;
          Alcotest.test_case "walk rpc = migrate" `Quick test_social_walk_mechanisms_agree;
          Alcotest.test_case "size guards" `Quick test_social_size_guards;
        ] );
      ( "btree_node",
        [
          Alcotest.test_case "find child index" `Quick test_node_find_child_index;
          Alcotest.test_case "member insert" `Quick test_node_member_insert;
          Alcotest.test_case "split point" `Quick test_node_split_point;
          Alcotest.test_case "plan shapes (paper)" `Quick test_plan_shapes_match_paper;
          Alcotest.test_case "plan preserves keys" `Quick test_plan_preserves_keys;
          Alcotest.test_case "plan rejects bad fill" `Quick test_plan_rejects_bad_fill;
          Alcotest.test_case "check names the violation" `Quick test_node_check_names_violation;
        ]
        @ qsuite [ prop_plan_keys_roundtrip ] );
      ( "btree",
        [
          Alcotest.test_case "lookup preloaded" `Quick test_btree_lookup_preloaded;
          Alcotest.test_case "insert then lookup" `Quick test_btree_insert_then_lookup;
          Alcotest.test_case "split chain" `Quick test_btree_many_inserts_split_chain;
          Alcotest.test_case "concurrent inserts" `Quick test_btree_concurrent_inserts;
          Alcotest.test_case "concurrent mixed" `Quick test_btree_concurrent_mixed_workload;
          Alcotest.test_case "root bottleneck relief" `Quick test_btree_migrate_root_bottleneck;
          Alcotest.test_case "modes agree" `Quick test_btree_modes_agree;
          Alcotest.test_case "sm lookups use no node cpu" `Quick
            test_btree_sm_uses_no_node_cpu_for_lookups;
          Alcotest.test_case "seqlock mode correct" `Quick test_btree_sm_seqlock_mode_correct;
          Alcotest.test_case "torus topology" `Quick test_btree_torus_topology;
          Alcotest.test_case "digest pins" `Quick test_btree_digest_pins;
          Alcotest.test_case "visit charged at issue" `Quick test_btree_visit_charged_at_issue;
          Alcotest.test_case "steady-state minor words" `Quick test_btree_minor_words_floor;
        ]
        @ qsuite
            [
              prop_btree_matches_reference;
              prop_counting_concurrent_step_property;
              prop_plan_heights;
            ] );
    ]
