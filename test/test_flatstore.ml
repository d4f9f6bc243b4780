(* The flat object space against its boxed reference (kept verbatim in
   store_ref/): qcheck equivalence over random op sequences, a machine-
   digest oracle through objmig-style runs, the growth-aliasing
   regression the old representation was one refactor away from, the
   flat DHT buckets against the assoc-list ones (digest cross-check and
   a zero-allocation overwrite floor), and replica bitsets at 1024
   processors. *)

open Cm_engine
open Cm_machine
open Cm_runtime
open Thread.Infix

let costs = Costs.software

let machine ?(n_procs = 8) () = Machine.create ~seed:11 ~n_procs ~costs ()

(* ------------------------------------------------------------------ *)
(* qcheck: flat store vs boxed reference                              *)
(* ------------------------------------------------------------------ *)

type op = Register of int * int | Move of int * int | Home of int | State of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (* home/index ranges deliberately overshoot: [-1] and [>= n]
           must raise identically on both stores. *)
        (4, map2 (fun h v -> Register (h, v)) (int_range (-1) 8) (int_range 0 1000));
        (3, map2 (fun i t -> Move (i, t)) (int_range (-1) 48) (int_range (-1) 8));
        (2, map (fun i -> Home i) (int_range (-1) 48));
        (2, map (fun i -> State i) (int_range (-1) 48));
      ])

let op_print = function
  | Register (h, v) -> Printf.sprintf "Register(home=%d,v=%d)" h v
  | Move (i, t) -> Printf.sprintf "Move(%d,to=%d)" i t
  | Home i -> Printf.sprintf "Home %d" i
  | State i -> Printf.sprintf "State %d" i

let outcome f = try Ok (f ()) with Invalid_argument e -> Error e

let check_same what a b =
  if a <> b then
    QCheck.Test.fail_reportf "flat/boxed diverge on %s: %s vs %s" what
      (match a with Ok v -> Printf.sprintf "Ok %d" v | Error e -> "Error " ^ e)
      (match b with Ok v -> Printf.sprintf "Ok %d" v | Error e -> "Error " ^ e)

let prop_store_equivalence =
  QCheck.Test.make ~name:"flat store = boxed store on random op sequences" ~count:300
    QCheck.(make ~print:(fun l -> String.concat "; " (List.map op_print l)) Gen.(list_size (int_range 0 120) op_gen))
    (fun ops ->
      let m = machine () in
      let flat = Objspace.create m in
      let boxed = Store_ref.Objspace_boxed.create m in
      List.iter
        (fun op ->
          match op with
          | Register (home, v) ->
            check_same "register"
              (outcome (fun () -> (Objspace.register flat ~home v :> int)))
              (outcome (fun () -> Store_ref.Objspace_boxed.register boxed ~home v))
          | Move (i, to_) ->
            check_same "move"
              (outcome (fun () ->
                   Objspace.move flat (Objspace.id_of_int i) ~to_;
                   0))
              (outcome (fun () ->
                   Store_ref.Objspace_boxed.move boxed i ~to_;
                   0))
          | Home i ->
            check_same "home"
              (outcome (fun () -> Objspace.home flat (Objspace.id_of_int i)))
              (outcome (fun () -> Store_ref.Objspace_boxed.home boxed i))
          | State i ->
            check_same "state"
              (outcome (fun () -> Objspace.state flat (Objspace.id_of_int i)))
              (outcome (fun () -> Store_ref.Objspace_boxed.state boxed i)))
        ops;
      (* Final sweep: counts, every home/state, and iteration order. *)
      if Objspace.count flat <> Store_ref.Objspace_boxed.count boxed then
        QCheck.Test.fail_reportf "count diverges: %d vs %d" (Objspace.count flat)
          (Store_ref.Objspace_boxed.count boxed);
      let fs = ref [] and bs = ref [] in
      Objspace.iter (fun i h s -> fs := ((i :> int), h, s) :: !fs) flat;
      Store_ref.Objspace_boxed.iter (fun i h s -> bs := (i, h, s) :: !bs) boxed;
      !fs = !bs)

(* ------------------------------------------------------------------ *)
(* qcheck: digest oracle through an objmig-style run                  *)
(* ------------------------------------------------------------------ *)

(* Random call/pull/migrate traffic over objects in the flat store,
   driven by the real [Objmig]; a boxed mirror tracks where each object
   should be.  The run must (a) leave the flat store's homes exactly
   where the mirror says, and (b) produce a bit-identical machine
   digest when replayed — representation changes must be invisible to
   simulated time. *)

type mig_op = Call of int | Pull of int | Migrate of int * int

let mig_gen n_objs n_procs =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun j -> Call j) (int_range 0 (n_objs - 1)));
        (2, map (fun j -> Pull j) (int_range 0 (n_objs - 1)));
        ( 2,
          map2 (fun j t -> Migrate (j, t)) (int_range 0 (n_objs - 1)) (int_range 0 (n_procs - 1))
        );
      ])

let mig_print = function
  | Call j -> Printf.sprintf "Call %d" j
  | Pull j -> Printf.sprintf "Pull %d" j
  | Migrate (j, t) -> Printf.sprintf "Migrate(%d,to=%d)" j t

let n_objs = 6

let n_procs = 8

let objmig_run ops =
  let m = Machine.create ~seed:11 ~n_procs ~costs () in
  let rt = Runtime.create m in
  let space = Objspace.create m in
  let om = Objmig.create rt space ~words_of:(fun (_ : int ref) -> 16) in
  let ids = Array.init n_objs (fun j -> Objspace.register space ~home:(j mod n_procs) (ref j)) in
  Machine.spawn m ~on:0
    (Thread.iter_list
       (fun op ->
         match op with
         | Call j ->
           Thread.ignore_m
             (Objmig.call om ids.(j) ~args_words:8 ~result_words:2 (fun c ->
                  incr c;
                  let* () = Thread.compute 30 in
                  Thread.return !c))
         | Pull j ->
           Thread.ignore_m
             (Objmig.call_pull om ids.(j) ~result_words:2 (fun c ->
                  incr c;
                  let* () = Thread.compute 30 in
                  Thread.return !c))
         | Migrate (j, to_) -> Objmig.migrate_object om ids.(j) ~to_)
       ops);
  Machine.run m;
  let homes = Array.map (fun i -> Objspace.home space i) ids in
  let values = Array.map (fun i -> !(Objspace.state space i)) ids in
  (Machine.digest m, homes, values)

let prop_objmig_digest_oracle =
  QCheck.Test.make ~name:"objmig run over flat store: homes match boxed mirror, digest stable"
    ~count:60
    QCheck.(
      make
        ~print:(fun l -> String.concat "; " (List.map mig_print l))
        Gen.(list_size (int_range 1 40) (mig_gen n_objs n_procs)))
    (fun ops ->
      let digest1, homes, values = objmig_run ops in
      let digest2, homes2, values2 = objmig_run ops in
      if digest1 <> digest2 then QCheck.Test.fail_report "same run, different machine digest";
      if homes <> homes2 || values <> values2 then
        QCheck.Test.fail_report "same run, different final object state";
      (* Boxed mirror of where each object must end up: the driving
         thread runs on proc 0, so a pull lands the object there; a
         migrate lands it at its target. *)
      let mirror = Machine.create ~seed:11 ~n_procs ~costs () in
      let boxed = Store_ref.Objspace_boxed.create mirror in
      let bids =
        Array.init n_objs (fun j ->
            Store_ref.Objspace_boxed.register boxed ~home:(j mod n_procs) j)
      in
      List.iter
        (function
          | Call _ -> ()
          | Pull j -> Store_ref.Objspace_boxed.move boxed bids.(j) ~to_:0
          | Migrate (j, to_) -> Store_ref.Objspace_boxed.move boxed bids.(j) ~to_)
        ops;
      let expect = Array.map (fun i -> Store_ref.Objspace_boxed.home boxed i) bids in
      if homes <> expect then
        QCheck.Test.fail_reportf "final homes diverge from boxed mirror: [%s] vs [%s]"
          (String.concat ";" (Array.to_list (Array.map string_of_int homes)))
          (String.concat ";" (Array.to_list (Array.map string_of_int expect)));
      (* Each op increments the object it touches exactly once. *)
      let touches = Array.make n_objs 0 in
      List.iter
        (function
          | Call j | Pull j -> touches.(j) <- touches.(j) + 1
          | Migrate _ -> ())
        ops;
      values = Array.mapi (fun j t -> j + t) touches)

(* ------------------------------------------------------------------ *)
(* Growth-aliasing regression                                         *)
(* ------------------------------------------------------------------ *)

(* The boxed store's growth path filled spare slots with one shared
   mutable record; had any spare slot ever been exposed, moving one
   object would have moved them all.  The flat store has no records to
   share — this registers well past several growth boundaries (default
   cap 16 doubles at 16, 32, 64), then mutates every home and checks
   each object kept its own. *)
let test_growth_aliasing () =
  let m = machine () in
  let s = Objspace.create m in
  let n = 100 in
  let ids = Array.init n (fun i -> Objspace.register s ~home:(i mod 8) i) in
  Array.iteri (fun i id -> Objspace.move s id ~to_:((i + 3) mod 8)) ids;
  Array.iteri
    (fun i id ->
      Alcotest.(check int) (Printf.sprintf "home of %d independent" i) ((i + 3) mod 8)
        (Objspace.home s id);
      Alcotest.(check int) (Printf.sprintf "state of %d intact" i) i (Objspace.state s id))
    ids;
  (* Interleave registration with mutation across a boundary: the 17th
     register triggers growth while object 0 holds a moved home. *)
  let s2 = Objspace.create m in
  let a = Objspace.register s2 ~home:1 "a" in
  Objspace.move s2 a ~to_:7;
  let rest = Array.init 20 (fun i -> Objspace.register s2 ~home:(i mod 8) "x") in
  Alcotest.(check int) "moved home survives growth" 7 (Objspace.home s2 a);
  Array.iteri
    (fun i id -> Alcotest.(check int) "late homes intact" (i mod 8) (Objspace.home s2 id))
    rest

(* ------------------------------------------------------------------ *)
(* DHT: flat int-pair buckets vs the boxed assoc-list reference       *)
(* ------------------------------------------------------------------ *)

let dht_node_procs = 16

let dht_keys = 20_000

let dht_buckets = 1_024

let dht_nodes = Array.init dht_node_procs (fun i -> i)

let flat_dht env =
  Cm_apps.Dht.create env ~buckets:dht_buckets ~bucket_capacity:64
    ~mode:(Cm_apps.Dht.Messaging Cm_core.Prelude.Rpc) ~node_procs:dht_nodes ()

(* A uniform-key RPC put stream over a preloaded table, from 8
   requesters for 120,000 cycles; [make] builds the table and returns
   its preload and put.  The digest and op count of the run. *)
let dht_put_run make =
  let requesters = 8 and horizon = 120_000 in
  let m = Machine.create ~seed:42 ~n_procs:(dht_node_procs + requesters) ~costs () in
  let preload, put = make (Cm_apps.Sysenv.make m) in
  for k = 0 to dht_keys - 1 do
    preload ~key:k ~value:k
  done;
  let request _ =
    let* r = Thread.rng in
    let key = Rng.int r dht_keys in
    put ~key ~value:key
  in
  let metrics =
    Cm_workload.Driver.run m
      { Cm_workload.Driver.requesters; first_proc = dht_node_procs; think = 0;
        warmup = horizon / 5; horizon }
      request
  in
  (Machine.digest m, metrics.Cm_workload.Metrics.ops)

(* Both representations charge identical costs over identical request
   streams, so the machines must end bit-identical: the boxed reference
   is cost-identical to the live store, and a representation change
   that moves simulated time fails here. *)
let test_dht_digest_cross_check () =
  let flat_digest, flat_ops =
    dht_put_run (fun env ->
        let t = flat_dht env in
        (Cm_apps.Dht.preload t, Cm_apps.Dht.put t))
  in
  let boxed_digest, boxed_ops =
    dht_put_run (fun env ->
        let t =
          Store_ref.Dht_boxed.create env.Cm_apps.Sysenv.prelude ~buckets:dht_buckets
            ~bucket_capacity:64 ~access:Cm_core.Prelude.Rpc ~node_procs:dht_nodes ()
        in
        (Store_ref.Dht_boxed.preload t, Store_ref.Dht_boxed.put t))
  in
  Alcotest.(check bool) "ops completed" true (flat_ops > 0);
  Alcotest.(check int) "op count" boxed_ops flat_ops;
  Alcotest.(check string) "machine digest" boxed_digest flat_digest

(* Flat buckets overwrite a value in place: after a warm prefix, a
   stream of overwrites allocates nothing (the assoc-list buckets
   rebuild O(position) cells per update). *)
let test_dht_overwrite_allocates_nothing () =
  let warm_ops = 50_000 and measured_ops = 150_000 in
  let stream =
    let r = Rng.create ~seed:7 in
    Array.init (warm_ops + measured_ops) (fun _ -> Rng.int r dht_keys)
  in
  let t = flat_dht (Cm_apps.Sysenv.make (Machine.create ~seed:42 ~n_procs:dht_node_procs ~costs ())) in
  for k = 0 to dht_keys - 1 do
    Cm_apps.Dht.preload t ~key:k ~value:k
  done;
  for j = 0 to warm_ops - 1 do
    Cm_apps.Dht.preload t ~key:stream.(j) ~value:(stream.(j) lxor j)
  done;
  let before = Gc.minor_words () in
  for j = warm_ops to warm_ops + measured_ops - 1 do
    Cm_apps.Dht.preload t ~key:stream.(j) ~value:(stream.(j) lxor j)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words over 150,000 overwrites" 0. words;
  let last = warm_ops + measured_ops - 1 in
  Alcotest.(check (option int)) "last overwrite landed"
    (Some (stream.(last) lxor last))
    (Cm_apps.Dht.peek t stream.(last))

(* ------------------------------------------------------------------ *)
(* Replicate: presence bitset at 1024 processors                      *)
(* ------------------------------------------------------------------ *)

(* Reader pids straddle byte and word boundaries of the bitset. *)
let reader_pids = [ 0; 7; 8; 63; 64; 65; 511; 513; 1023 ]

let test_replicate_bitset_1024 () =
  let m = machine ~n_procs:1024 () in
  let rt = Runtime.create m in
  let home = 512 in
  let r = Replicate.create rt ~home ~words_of:(fun _ -> 4) 100 in
  let got = Hashtbl.create 16 in
  List.iter
    (fun pid ->
      Machine.spawn m ~on:pid
        (let* v = Replicate.read r in
         Hashtbl.replace got pid v;
         Thread.return ()))
    reader_pids;
  (* A read at the home must not install a replica. *)
  Machine.spawn m ~on:home (Thread.ignore_m (Replicate.read r));
  Machine.run m;
  Alcotest.(check int) "one replica per remote reader" (List.length reader_pids)
    (Replicate.replicas r);
  List.iter
    (fun pid -> Alcotest.(check int) (Printf.sprintf "pid %d fetched" pid) 100 (Hashtbl.find got pid))
    reader_pids;
  (* Update fans out to exactly the bitset's holders; each sees the new
     value from its local slot (no new fetches). *)
  Machine.spawn m ~on:home (Replicate.update r ~access:Runtime.Rpc 200);
  Machine.run m;
  Alcotest.(check int) "replica count unchanged by update" (List.length reader_pids)
    (Replicate.replicas r);
  let fetches_before = Stats.get m.Machine.stats "repl.fetches" in
  List.iter
    (fun pid ->
      Machine.spawn m ~on:pid
        (let* v = Replicate.read r in
         Hashtbl.replace got pid v;
         Thread.return ()))
    reader_pids;
  Machine.run m;
  List.iter
    (fun pid ->
      Alcotest.(check int) (Printf.sprintf "pid %d sees update" pid) 200 (Hashtbl.find got pid))
    reader_pids;
  Alcotest.(check int) "re-reads hit local replicas" fetches_before
    (Stats.get m.Machine.stats "repl.fetches");
  Alcotest.(check int) "version bumped" 1 (Replicate.version r)

let test_replicate_repeated_install_counts_once () =
  let m = machine ~n_procs:64 () in
  let rt = Runtime.create m in
  let r = Replicate.create rt ~home:0 ~words_of:(fun _ -> 4) 1 in
  Machine.spawn m ~on:63
    (let* _ = Replicate.read r in
     let* _ = Replicate.read r in
     Thread.ignore_m (Replicate.read r));
  Machine.run m;
  Alcotest.(check int) "replicas" 1 (Replicate.replicas r)

let () =
  Alcotest.run "flatstore"
    [
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest [ prop_store_equivalence; prop_objmig_digest_oracle ]
      );
      ("aliasing", [ Alcotest.test_case "growth boundary" `Quick test_growth_aliasing ]);
      ( "dht",
        [
          Alcotest.test_case "flat = boxed digest" `Quick test_dht_digest_cross_check;
          Alcotest.test_case "overwrites allocate 0" `Quick test_dht_overwrite_allocates_nothing;
        ] );
      ( "replicate",
        [
          Alcotest.test_case "bitset at 1024 procs" `Quick test_replicate_bitset_1024;
          Alcotest.test_case "repeat install counts once" `Quick
            test_replicate_repeated_install_counts_once;
        ] );
    ]
