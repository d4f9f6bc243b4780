(* Tests for the Prelude-like runtime: Objspace, Runtime (RPC and
   computation migration), Replicate, and the Prelude facade — including
   the paper's Figure 1 message-count model, which the simulator must
   reproduce exactly. *)

open Cm_engine
open Cm_machine
open Cm_runtime
open Cm_core
open Thread.Infix

let costs = Costs.software

let machine ?(n = 8) () = Machine.create ~seed:3 ~n_procs:n ~costs ()

let run_thread ?(on = 0) m body =
  let finished = ref false in
  Machine.spawn m ~on ~on_exit:(fun () -> finished := true) body;
  Machine.run m;
  Alcotest.(check bool) "thread finished" true !finished

(* ------------------------------------------------------------------ *)
(* Objspace                                                           *)
(* ------------------------------------------------------------------ *)

let test_objspace_register () =
  let m = machine () in
  let space = Objspace.create m in
  let a = Objspace.register space ~home:2 "alpha" in
  let b = Objspace.register space ~home:5 "beta" in
  Alcotest.(check int) "a home" 2 (Objspace.home space a);
  Alcotest.(check int) "b home" 5 (Objspace.home space b);
  Alcotest.(check string) "a state" "alpha" (Objspace.state space a);
  Alcotest.(check string) "b state" "beta" (Objspace.state space b);
  Alcotest.(check int) "count" 2 (Objspace.count space)

let test_objspace_bad_home () =
  let m = machine () in
  let space = Objspace.create m in
  Alcotest.check_raises "bad home" (Invalid_argument "Objspace.register: bad home processor")
    (fun () -> ignore (Objspace.register space ~home:99 ()))

let test_objspace_unknown () =
  let m = machine () in
  let space = Objspace.create m in
  ignore (Objspace.register space ~home:0 ());
  Alcotest.check_raises "unknown id" (Invalid_argument "Objspace: unknown object 7") (fun () ->
      ignore (Objspace.home space (Objspace.id_of_int 7)))

let test_objspace_iter () =
  let m = machine () in
  let space = Objspace.create m in
  for i = 0 to 4 do
    ignore (Objspace.register space ~home:i (i * 10))
  done;
  let sum = ref 0 in
  Objspace.iter (fun _ home state -> sum := !sum + home + state) space;
  Alcotest.(check int) "visited all" (10 + 100) !sum


let test_objspace_growth () =
  let m = machine () in
  let space = Objspace.create m in
  let ids = List.init 100 (fun i -> Objspace.register space ~home:(i mod 8) (i * 2)) in
  Alcotest.(check int) "count" 100 (Objspace.count space);
  List.iteri
    (fun i id ->
      Alcotest.(check int) "home survives growth" (i mod 8) (Objspace.home space id);
      Alcotest.(check int) "state survives growth" (i * 2) (Objspace.state space id))
    ids

(* Words allocated by [f ()], direct major allocations included (a
   payload array of more than 256 slots goes straight to the major
   heap).  The two clock reads box a float each. *)
let words_allocated f =
  let before = Gc.allocated_bytes () in
  f ();
  (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)

let register_n space n =
  for i = 1 to n do
    ignore (Objspace.register space ~home:(i mod 8) (-i))
  done

let test_objspace_reserve_keeps () =
  let m = machine () in
  let space = Objspace.create m in
  let early = List.init 20 (fun i -> Objspace.register space ~home:(i mod 8) (i * 3)) in
  List.iteri (fun i (id : Objspace.id) -> Alcotest.(check int) "ids are consecutive" i (id :> int)) early;
  Objspace.reserve space 1000;
  Alcotest.(check int) "count unchanged" 20 (Objspace.count space);
  List.iteri
    (fun i id ->
      Alcotest.(check int) "home survives reserve" (i mod 8) (Objspace.home space id);
      Alcotest.(check int) "state survives reserve" (i * 3) (Objspace.state space id))
    early;
  Alcotest.(check int) "next id follows" 20 (Objspace.register space ~home:1 7 :> int)

(* After [reserve t n] on a space of [size] objects the capacity is
   exactly [size + n]: [n] registrations allocate nothing and the next
   one grows the arrays. *)
let test_objspace_reserve_exact () =
  let m = machine () in
  let space = Objspace.create m in
  register_n space 5;
  Objspace.reserve space 3000;
  let w = words_allocated (fun () -> register_n space 3000) in
  if w > 16. then Alcotest.failf "%.0f words allocated by 3000 reserved registrations" w;
  let w = words_allocated (fun () -> register_n space 1) in
  if w < 3005. then Alcotest.failf "registration past the reserve allocated only %.0f words" w;
  Alcotest.(check int) "count" 3006 (Objspace.count space)

let test_objspace_reserve_validates () =
  let m = machine () in
  let space = Objspace.create m in
  Alcotest.check_raises "negative" (Invalid_argument "Objspace.reserve: negative count") (fun () ->
      Objspace.reserve space (-1));
  Objspace.reserve space 500;
  register_n space 100;
  (* 400 slots are left: a reserve they cover changes nothing. *)
  let w = words_allocated (fun () -> Objspace.reserve space 400; Objspace.reserve space 0) in
  if w > 16. then Alcotest.failf "%.0f words allocated by a reserve that fits" w;
  let w = words_allocated (fun () -> register_n space 400) in
  if w > 16. then Alcotest.failf "%.0f words allocated inside the first reserve" w;
  let w = words_allocated (fun () -> register_n space 1) in
  if w < 500. then Alcotest.failf "capacity changed: growth allocated only %.0f words" w

let test_prelude_proc_at_base () =
  let m = machine () in
  let p = Prelude.create m in
  let obj = Prelude.make_obj p ~home:5 () in
  let ended_on = ref (-1) in
  run_thread ~on:0 m
    (let* () =
       Prelude.proc p ~at_base:true
         (Prelude.invoke p ~access:Prelude.Migrate obj (fun () -> Thread.return ()))
     in
     let* pr = Thread.proc in
     ended_on := Processor.id pr;
     Thread.return ());
  Alcotest.(check int) "base scope stays remote" 5 !ended_on

let test_prelude_defaults () =
  Alcotest.(check int) "args default 8 words (32 bytes)" 8 Prelude.default_args_words;
  Alcotest.(check int) "result default 2 words" 2 Prelude.default_result_words

let test_prelude_obj_home () =
  let m = machine () in
  let p = Prelude.create m in
  let o = Prelude.make_obj p ~home:6 "payload" in
  Alcotest.(check int) "home" 6 (Prelude.obj_home p o);
  Alcotest.(check string) "state" "payload" (Prelude.obj_state p o)

(* ------------------------------------------------------------------ *)
(* Runtime.call                                                       *)
(* ------------------------------------------------------------------ *)

let test_call_local_no_messages () =
  let m = machine () in
  let rt = Runtime.create m in
  let ran = ref false in
  run_thread ~on:3 m
    (Runtime.call rt ~access:Runtime.Rpc ~home:3 ~args_words:8 ~result_words:2
       (Thread.return (ran := true)));
  Alcotest.(check bool) "body ran" true !ran;
  Alcotest.(check int) "no messages" 0 (Network.total_messages m.Machine.net);
  Alcotest.(check int) "local call counted" 1 (Runtime.local_calls rt)

let test_call_rpc_two_messages () =
  let m = machine () in
  let rt = Runtime.create m in
  let body_ran_on = ref (-1) and ended_on = ref (-1) in
  run_thread ~on:0 m
    (let* r =
       Runtime.call rt ~access:Runtime.Rpc ~home:5 ~args_words:8 ~result_words:2
         (let* p = Thread.proc in
          body_ran_on := Processor.id p;
          Thread.return 99)
     in
     Alcotest.(check int) "result returned" 99 r;
     let* p = Thread.proc in
     ended_on := Processor.id p;
     Thread.return ());
  Alcotest.(check int) "body at home" 5 !body_ran_on;
  Alcotest.(check int) "caller stays put" 0 !ended_on;
  Alcotest.(check int) "request message" 1 (Network.messages_of_kind m.Machine.net "rpc");
  Alcotest.(check int) "reply message" 1 (Network.messages_of_kind m.Machine.net "rpc_reply");
  Alcotest.(check int) "total 2" 2 (Network.total_messages m.Machine.net);
  Alcotest.(check int) "rpc counted" 1 (Runtime.rpc_calls rt)

let test_call_rpc_uses_server_cpu () =
  let m = machine () in
  let rt = Runtime.create m in
  run_thread ~on:0 m
    (Thread.ignore_m
       (Runtime.call rt ~access:Runtime.Rpc ~home:5 ~args_words:8 ~result_words:2
          (Thread.compute 150)));
  (* Server CPU: dispatch + receive pipeline + user code + reply send. *)
  let expect =
    costs.Costs.scheduler
    + Costs.recv_pipeline costs ~words:8 ~new_thread:true
    + 150
    + Costs.send_pipeline costs ~words:2
  in
  Alcotest.(check int) "server cycles" expect (Processor.busy_cycles (Machine.proc m 5))

let test_call_migrate_one_message_and_moves () =
  let m = machine () in
  let rt = Runtime.create m in
  let ended_on = ref (-1) in
  run_thread ~on:0 m
    (let* () =
       Runtime.call rt ~access:Runtime.Migrate ~home:5 ~args_words:8 ~result_words:2
         (Thread.return ())
     in
     let* p = Thread.proc in
     ended_on := Processor.id p;
     Thread.return ());
  Alcotest.(check int) "thread moved to home" 5 !ended_on;
  Alcotest.(check int) "single message" 1 (Network.total_messages m.Machine.net);
  Alcotest.(check int) "migration counted" 1 (Runtime.migrations rt)

let test_call_migrate_subsequent_local () =
  let m = machine () in
  let rt = Runtime.create m in
  run_thread ~on:0 m
    (Thread.repeat 5 (fun _ ->
         Thread.ignore_m
           (Runtime.call rt ~access:Runtime.Migrate ~home:5 ~args_words:8 ~result_words:2
              (Thread.return ()))));
  (* First access migrates; the other four are local. *)
  Alcotest.(check int) "one migration" 1 (Runtime.migrations rt);
  Alcotest.(check int) "four local" 4 (Runtime.local_calls rt);
  Alcotest.(check int) "one message" 1 (Network.total_messages m.Machine.net)

(* ------------------------------------------------------------------ *)
(* Runtime.site — the static-site shim over Runtime.call               *)
(* ------------------------------------------------------------------ *)

(* Run five invocations of [make rt] from processor 0 and collect every
   observable: final clock, traffic, call counters, where the thread
   ended.  A site must be indistinguishable from the Runtime.call it
   binds. *)
let measure_invocations make =
  let m = machine () in
  let rt = Runtime.create m in
  let inv = make rt in
  let ended = ref (-1) in
  run_thread ~on:0 m
    (let* () = Thread.repeat 5 (fun _ -> Thread.ignore_m inv) in
     let* p = Thread.proc in
     ended := Processor.id p;
     Thread.return ());
  ( Machine.now m,
    Network.total_messages m.Machine.net,
    Runtime.migrations rt,
    Runtime.local_calls rt,
    Runtime.rpc_calls rt,
    !ended )

let obs = Alcotest.(pair (pair (pair int int) (pair int int)) (pair int int))

let as_obs (a, b, c, d, e, f) = (((a, b), (c, d)), (e, f))

let test_site_call_matches_call_migrate () =
  let via_call rt =
    Runtime.call rt ~access:Runtime.Migrate ~home:5 ~args_words:8 ~result_words:2
      (Thread.compute 40)
  in
  let via_site rt =
    Runtime.site_call
      (Runtime.site rt ~access:Runtime.Migrate ~home:5 ~args_words:8 ~result_words:2
         (Thread.compute 40))
  in
  let reference = measure_invocations via_call in
  let fused = measure_invocations via_site in
  Alcotest.check obs "site cycle- and counter-identical to call" (as_obs reference) (as_obs fused);
  let _, messages, migrations, locals, _, ended = fused in
  Alcotest.(check int) "one migration" 1 migrations;
  Alcotest.(check int) "four local" 4 locals;
  Alcotest.(check int) "one message" 1 messages;
  Alcotest.(check int) "ended at home" 5 ended

let test_site_call_matches_call_rpc () =
  let via_call rt =
    Runtime.call rt ~access:Runtime.Rpc ~home:5 ~args_words:8 ~result_words:2 (Thread.compute 40)
  in
  let via_site rt =
    Runtime.site_call
      (Runtime.site rt ~access:Runtime.Rpc ~home:5 ~args_words:8 ~result_words:2
         (Thread.compute 40))
  in
  let reference = measure_invocations via_call in
  let fused = measure_invocations via_site in
  Alcotest.check obs "site cycle- and counter-identical to call" (as_obs reference) (as_obs fused);
  let _, messages, _, _, rpcs, ended = fused in
  Alcotest.(check int) "five rpcs" 5 rpcs;
  Alcotest.(check int) "request+reply per rpc" 10 messages;
  Alcotest.(check int) "caller stays put" 0 ended

let test_site_call_checked () =
  (* The sanitizers observe the same frame path: site_call under Check
     must keep every observable. *)
  let via_site rt =
    Runtime.site_call
      (Runtime.site rt ~access:Runtime.Migrate ~home:5 ~args_words:8 ~result_words:2
         (Thread.compute 40))
  in
  let plain = measure_invocations via_site in
  Check.set_enabled true;
  Check.reset ();
  let checked =
    Fun.protect
      ~finally:(fun () ->
        Check.set_enabled false;
        Check.reset ())
      (fun () -> measure_invocations via_site)
  in
  Alcotest.check obs "checked run identical" (as_obs plain) (as_obs checked)

(* ------------------------------------------------------------------ *)
(* Runtime.msite — per-object method sites                            *)
(* ------------------------------------------------------------------ *)

(* One method as a method-site frame body, and as a monad for the
   generic scope(call) reference it is compared against: charge 40
   cycles at the object's home, return state + a + b.  [seen] logs every
   run of the frame body: its context, processor and operands. *)
let ms_frame_body ?(seen = ref []) space =
  let done_ c =
    let v : int = Obj.obj (Objspace.state space (Objspace.id_of_int (Runtime.msite_obj c))) in
    Runtime.msite_finish c (v + Runtime.msite_arg_a c + Runtime.msite_arg_b c)
  in
  fun c ->
    seen :=
      ( c,
        Processor.id (Thread.Frame.proc c),
        (Runtime.msite_obj c, Runtime.msite_arg_a c, Runtime.msite_arg_b c) )
      :: !seen;
    Thread.Frame.hold_then c 40 done_

let ms_generic_body space ~obj ~a ~b =
  let* () = Thread.compute 40 in
  Thread.return ((Obj.obj (Objspace.state space (Objspace.id_of_int obj)) : int) + a + b)

(* Run a scripted thread against one 7-valued object homed at 5 and
   collect [measure_invocations]' observables plus every result.  The
   script gets the space, a fused-or-generic invoker (scoped and
   unscoped), and the object id.  [faults] arms fault injection. *)
let measure_msite ~access ~fused ?(faults = []) ?seen script =
  let m = machine () in
  let rt = Runtime.create m in
  let space = Objspace.create m in
  let obj = Objspace.register space ~home:5 (Obj.repr 7) in
  if faults <> [] then Transport.configure_faults (Machine.transport m) ~seed:1 faults;
  let ms =
    Runtime.msite rt ~access ~space ~args_words:8 ~result_words:2
      ~frame_body:(ms_frame_body ?seen space)
  in
  let scoped ~a ~b =
    if fused then Runtime.msite_scoped ms ~obj:(obj :> int) ~a ~b
    else
      Runtime.scope rt ~result_words:2
        (Runtime.call rt ~access
           ~home:(Objspace.home space obj)
           ~args_words:8 ~result_words:2
           (ms_generic_body space ~obj:(obj :> int) ~a ~b))
  in
  let unscoped ~a ~b =
    if fused then Runtime.msite_call ms ~obj:(obj :> int) ~a ~b
    else
      Runtime.call rt ~access
        ~home:(Objspace.home space obj)
        ~args_words:8 ~result_words:2
        (ms_generic_body space ~obj:(obj :> int) ~a ~b)
  in
  let results = ref [] in
  let ended = ref (-1) in
  run_thread ~on:0 m
    (let* () = script space obj ~scoped ~unscoped results in
     let* p = Thread.proc in
     ended := Processor.id p;
     Thread.return ());
  ( ( Machine.now m,
      Network.total_messages m.Machine.net,
      Runtime.migrations rt,
      Runtime.local_calls rt,
      Runtime.rpc_calls rt,
      !ended ),
    List.rev !results )

(* Five scoped invocations, varying operands. *)
let msite_repeat_script _space _obj ~scoped ~unscoped:_ results =
  Thread.repeat 5 (fun i ->
      let* r = scoped ~a:i ~b:(2 * i) in
      results := r :: !results;
      Thread.return ())

let check_msite_pair name ~access script =
  let reference = measure_msite ~access ~fused:false script in
  let fused = measure_msite ~access ~fused:true script in
  Alcotest.check obs (name ^ ": observables identical") (as_obs (fst reference))
    (as_obs (fst fused));
  Alcotest.(check (list int)) (name ^ ": results identical") (snd reference) (snd fused);
  fused

let test_msite_matches_scope_call_migrate () =
  let (_, messages, migrations, _, _, ended), results =
    check_msite_pair "migrate" ~access:Runtime.Migrate msite_repeat_script
  in
  (* Each scoped call migrates there and sends the result back. *)
  Alcotest.(check int) "five migrations" 5 migrations;
  Alcotest.(check int) "two messages per call" 10 messages;
  Alcotest.(check int) "caller back home" 0 ended;
  Alcotest.(check (list int)) "method results" [ 7; 10; 13; 16; 19 ] results

let test_msite_matches_scope_call_rpc () =
  let (_, messages, _, _, rpcs, ended), _ =
    check_msite_pair "rpc" ~access:Runtime.Rpc msite_repeat_script
  in
  Alcotest.(check int) "five rpcs" 5 rpcs;
  Alcotest.(check int) "request+reply per rpc" 10 messages;
  Alcotest.(check int) "caller stays put" 0 ended

(* The home table is consulted per invocation: a concurrent
   [Objspace.move] redirects the very next call, fused and generic
   alike. *)
let msite_move_script space obj ~scoped ~unscoped:_ results =
  let* r1 = scoped ~a:1 ~b:0 in
  results := r1 :: !results;
  Objspace.move space obj ~to_:2;
  let* r2 = scoped ~a:2 ~b:0 in
  results := r2 :: !results;
  Thread.return ()

let test_msite_rebinds_on_move () =
  let (_, messages, migrations, _, _, _), results =
    check_msite_pair "move" ~access:Runtime.Migrate msite_move_script
  in
  Alcotest.(check int) "both calls migrated" 2 migrations;
  Alcotest.(check int) "two messages per call" 4 messages;
  Alcotest.(check (list int)) "same state at new home" [ 8; 9 ] results

(* Unscoped migrate calls leave the thread at the home: the first
   migrates, the rest are local — and a move re-opens the distance. *)
let msite_sticky_script space obj ~scoped:_ ~unscoped results =
  let* r1 = unscoped ~a:1 ~b:0 in
  let* r2 = unscoped ~a:2 ~b:0 in
  Objspace.move space obj ~to_:2;
  let* r3 = unscoped ~a:3 ~b:0 in
  results := [ r3; r2; r1 ] @ !results;
  Thread.return ()

let test_msite_unscoped_sticky () =
  let (_, _, migrations, locals, _, ended), _ =
    check_msite_pair "sticky" ~access:Runtime.Migrate msite_sticky_script
  in
  Alcotest.(check int) "migrated to 5 then to 2" 2 migrations;
  Alcotest.(check int) "second call local" 1 locals;
  Alcotest.(check int) "thread follows the object" 2 ended

let test_msite_checked () =
  (* The sanitizers observe the same frame path: an msite under Check
     must keep every observable. *)
  let plain = measure_msite ~access:Runtime.Migrate ~fused:true msite_repeat_script in
  Check.set_enabled true;
  Check.reset ();
  let checked =
    Fun.protect
      ~finally:(fun () ->
        Check.set_enabled false;
        Check.reset ())
      (fun () -> measure_msite ~access:Runtime.Migrate ~fused:true msite_repeat_script)
  in
  Alcotest.check obs "checked run identical" (as_obs (fst plain)) (as_obs (fst checked));
  Alcotest.(check (list int)) "checked results identical" (snd plain) (snd checked)

(* Duplicated RPC requests: every request arrives twice, so each call's
   frame body runs on two server threads, each on its own context at the
   home with that request's operands, and two replies come back.  The
   caller resumes once per call with the right result; the second reply
   is discarded, and under Check it is caught as a second resumption of
   the caller's await — the only violation the run raises. *)
let dup_rpc = [ ("rpc", { Transport.no_fault with duplicate = 1.0 }) ]

let msite_duplicated_rpc () =
  let seen = ref [] and caller = ref None in
  let script space obj ~scoped ~unscoped results =
    let* () =
     fun c k ->
      caller := Some c;
      k ()
    in
    msite_repeat_script space obj ~scoped ~unscoped results
  in
  let (_, messages, _, _, rpcs, ended), results =
    measure_msite ~access:Runtime.Rpc ~fused:true ~faults:dup_rpc ~seen script
  in
  Alcotest.(check (list int)) "each call resumed once, right result" [ 7; 10; 13; 16; 19 ]
    results;
  Alcotest.(check int) "five rpcs" 5 rpcs;
  Alcotest.(check int) "two requests and two replies per call" 20 messages;
  Alcotest.(check int) "caller stays put" 0 ended;
  let runs = List.rev !seen in
  Alcotest.(check (list (pair int (triple int int int))))
    "each copy ran at the home with its request's operands"
    (List.concat_map (fun i -> [ (5, (0, i, 2 * i)); (5, (0, i, 2 * i)) ]) [ 0; 1; 2; 3; 4 ])
    (List.map (fun (_, p, ops) -> (p, ops)) runs);
  let caller = Option.get !caller in
  Alcotest.(check bool) "never on the caller's context" true
    (List.for_all (fun (c, _, _) -> c != caller) runs);
  let rec copies_apart = function
    | (c1, _, _) :: (c2, _, _) :: rest -> c1 != c2 && copies_apart rest
    | _ -> true
  in
  Alcotest.(check bool) "the two copies of a call on two contexts" true (copies_apart runs);
  (* Under Check: one call, whose duplicate reply is the only
     violation. *)
  let got = ref [] in
  let one_call _ _ ~scoped ~unscoped:_ _ =
    let* r = scoped ~a:1 ~b:2 in
    got := r :: !got;
    Thread.return ()
  in
  Check.set_enabled true;
  Check.reset ();
  Fun.protect
    ~finally:(fun () ->
      Check.set_enabled false;
      Check.reset ())
    (fun () ->
      match measure_msite ~access:Runtime.Rpc ~fused:true ~faults:dup_rpc one_call with
      | _ -> Alcotest.fail "the duplicate reply was not caught"
      | exception Check.Violation msg ->
        Alcotest.(check bool) "the violation is the caller's second resumption" true
          (String.ends_with ~suffix:"Thread.await resume" msg);
        Alcotest.(check (list int)) "caller resumed once before it" [ 10 ] !got)

let test_msite_faults () =
  (* Arming fault injection with all-zero probabilities routes the
     migrations through the fault-checking send path; the msite must
     keep every observable. *)
  let plain = measure_msite ~access:Runtime.Migrate ~fused:true msite_repeat_script in
  let armed =
    measure_msite ~access:Runtime.Migrate ~fused:true
      ~faults:[ ("migrate", Transport.no_fault) ]
      msite_repeat_script
  in
  Alcotest.check obs "armed run identical" (as_obs (fst plain)) (as_obs (fst armed));
  Alcotest.(check (list int)) "armed results identical" (snd plain) (snd armed);
  msite_duplicated_rpc ()

(* The whole-machine oracle: random interleavings of scoped calls,
   unscoped calls, and object moves from two requesters over a shared
   4-object space — fused method sites must leave a machine digest
   bit-identical to the generic scope/call composition. *)
let prop_msite_digest_oracle =
  QCheck.Test.make ~name:"msite digest-identical to scope(call)" ~count:40
    QCheck.(pair bool (list_of_size Gen.(1 -- 20) (pair (int_range 0 3) (int_range 0 9))))
    (fun (migrate, ops) ->
      let access = if migrate then Runtime.Migrate else Runtime.Rpc in
      let run fused =
        let m = machine () in
        let rt = Runtime.create m in
        let space = Objspace.create m in
        let objs = Array.init 4 (fun i -> Objspace.register space ~home:(2 * i) (Obj.repr (i * 10))) in
        let ms =
          Runtime.msite rt ~access ~space ~args_words:8 ~result_words:2
            ~frame_body:(ms_frame_body space)
        in
        let op (i, x) =
          let obj = objs.(i) in
          if x >= 8 then begin
            (* Re-home between calls: both runs must re-resolve. *)
            Objspace.move space obj ~to_:((i + x) mod 8);
            Thread.return ()
          end
          else if x land 1 = 0 then
            Thread.ignore_m
              (if fused then Runtime.msite_scoped ms ~obj:(obj :> int) ~a:x ~b:i
               else
                 (* Eta-delayed so the home is read when the op runs —
                    the moment msite_enter reads it — not when the op
                    list is built. *)
                 fun c k ->
                   Runtime.scope rt ~result_words:2
                     (Runtime.call rt ~access
                        ~home:(Objspace.home space obj)
                        ~args_words:8 ~result_words:2
                        (ms_generic_body space ~obj:(obj :> int) ~a:x ~b:i))
                     c k)
          else
            Thread.ignore_m
              (if fused then Runtime.msite_call ms ~obj:(obj :> int) ~a:x ~b:i
               else
                 fun c k ->
                   Runtime.call rt ~access
                     ~home:(Objspace.home space obj)
                     ~args_words:8 ~result_words:2
                     (ms_generic_body space ~obj:(obj :> int) ~a:x ~b:i)
                     c k)
        in
        let evens = List.filteri (fun j _ -> j mod 2 = 0) ops in
        let odds = List.filteri (fun j _ -> j mod 2 = 1) ops in
        Machine.spawn m ~on:0 (Thread.iter_list op evens);
        Machine.spawn m ~on:1 (Thread.iter_list op odds);
        Machine.run m;
        Machine.digest m
      in
      String.equal (run false) (run true))

let test_scope_returns_home () =
  let m = machine () in
  let rt = Runtime.create m in
  let ended_on = ref (-1) in
  run_thread ~on:0 m
    (let* r =
       Runtime.scope rt ~result_words:2
         (let* () =
            Runtime.call rt ~access:Runtime.Migrate ~home:4 ~args_words:8 ~result_words:2
              (Thread.return ())
          in
          Thread.return 7)
     in
     Alcotest.(check int) "scope result" 7 r;
     let* p = Thread.proc in
     ended_on := Processor.id p;
     Thread.return ());
  Alcotest.(check int) "back at origin" 0 !ended_on;
  Alcotest.(check int) "migrate + return" 2 (Network.total_messages m.Machine.net);
  Alcotest.(check int) "return message kind" 1
    (Network.messages_of_kind m.Machine.net "migrate_return")

let test_scope_at_base_short_circuits () =
  let m = machine () in
  let rt = Runtime.create m in
  let ended_on = ref (-1) in
  run_thread ~on:0 m
    (let* () =
       Runtime.scope rt ~at_base:true ~result_words:2
         (Runtime.call rt ~access:Runtime.Migrate ~home:4 ~args_words:8 ~result_words:2
            (Thread.return ()))
     in
     let* p = Thread.proc in
     ended_on := Processor.id p;
     Thread.return ());
  Alcotest.(check int) "stays at destination" 4 !ended_on;
  Alcotest.(check int) "no return message" 1 (Network.total_messages m.Machine.net)

let test_scope_local_body_free () =
  let m = machine () in
  let rt = Runtime.create m in
  run_thread ~on:2 m (Thread.ignore_m (Runtime.scope rt ~result_words:2 (Thread.return 1)));
  Alcotest.(check int) "no messages for local scope" 0 (Network.total_messages m.Machine.net)

let test_rpc_handler_migrates_reply_short_circuit () =
  (* An RPC whose handler migrates: the reply must flow directly from the
     final processor to the caller (one rpc, one migrate, one reply). *)
  let m = machine () in
  let rt = Runtime.create m in
  let got = ref (-1) in
  run_thread ~on:0 m
    (let* r =
       Runtime.call rt ~access:Runtime.Rpc ~home:3 ~args_words:8 ~result_words:2
         (let* () =
            Runtime.call rt ~access:Runtime.Migrate ~home:6 ~args_words:8 ~result_words:2
              (Thread.return ())
          in
          let* p = Thread.proc in
          Thread.return (Processor.id p))
     in
     got := r;
     Thread.return ());
  Alcotest.(check int) "handler finished on 6" 6 !got;
  Alcotest.(check int) "one rpc request" 1 (Network.messages_of_kind m.Machine.net "rpc");
  Alcotest.(check int) "one migration" 1 (Network.messages_of_kind m.Machine.net "migrate");
  Alcotest.(check int) "one direct reply" 1 (Network.messages_of_kind m.Machine.net "rpc_reply");
  Alcotest.(check int) "nothing else" 3 (Network.total_messages m.Machine.net)

let test_migration_cheaper_than_rpc_roundtrip () =
  (* End-to-end latency of one remote access + one piece of user code:
     migration saves the reply leg. *)
  let one access =
    let m = machine () in
    let rt = Runtime.create m in
    let finished = ref 0 in
    run_thread ~on:0 m
      (let* () =
         Thread.ignore_m
           (Runtime.call rt ~access ~home:5 ~args_words:8 ~result_words:2 (Thread.compute 150))
       in
       finished := Machine.now m;
       Thread.return ());
    !finished
  in
  let rpc = one Runtime.Rpc and mig = one Runtime.Migrate in
  Alcotest.(check bool) (Printf.sprintf "migrate (%d) < rpc (%d)" mig rpc) true (mig < rpc)

(* ------------------------------------------------------------------ *)
(* Figure 1: message-count model                                      *)
(*                                                                    *)
(* One thread on P0 makes n consecutive accesses to each of m data     *)
(* items on processors 1..m.  The paper's model:                      *)
(*   RPC: 2nm messages    CP: m + 1    data migration: 2m             *)
(* ------------------------------------------------------------------ *)

let fig1_runtime_messages ~access ~n ~m =
  let mach = Machine.create ~seed:1 ~n_procs:(m + 1) ~costs () in
  let rt = Runtime.create mach in
  run_thread ~on:0 mach
    (Runtime.scope rt ~result_words:2
       (Thread.iter_list
          (fun item ->
            Thread.repeat n (fun _ ->
                Thread.ignore_m
                  (Runtime.call rt ~access ~home:item ~args_words:8 ~result_words:2
                     (Thread.compute 10))))
          (List.init m (fun i -> i + 1))));
  Network.total_messages mach.Machine.net

let fig1_shmem_messages ~n ~m =
  let mach = Machine.create ~seed:1 ~n_procs:(m + 1) ~costs () in
  let mem = Cm_memory.Shmem.create mach in
  let addrs = List.init m (fun i -> Cm_memory.Shmem.alloc mem ~home:(i + 1) ~words:1) in
  run_thread ~on:0 mach
    (Thread.iter_list
       (fun a ->
         Thread.repeat n (fun _ ->
             let* _ = Cm_memory.Shmem.read mem a in
             Thread.compute 10))
       addrs);
  Network.total_messages mach.Machine.net

let test_fig1_rpc_2nm () =
  List.iter
    (fun (n, m) ->
      Alcotest.(check int)
        (Printf.sprintf "RPC n=%d m=%d" n m)
        (2 * n * m)
        (fig1_runtime_messages ~access:Runtime.Rpc ~n ~m))
    [ (1, 1); (3, 4); (5, 7) ]

let test_fig1_cp_m_plus_1 () =
  List.iter
    (fun (n, m) ->
      Alcotest.(check int)
        (Printf.sprintf "CP n=%d m=%d" n m)
        (m + 1)
        (fig1_runtime_messages ~access:Runtime.Migrate ~n ~m))
    [ (1, 1); (3, 4); (5, 7) ]

let test_fig1_data_migration_2m () =
  List.iter
    (fun (n, m) ->
      Alcotest.(check int)
        (Printf.sprintf "DM n=%d m=%d" n m)
        (2 * m)
        (fig1_shmem_messages ~n ~m))
    [ (1, 1); (3, 4); (5, 7) ]


(* Closed-form message model for an arbitrary mixed sequence of calls
   within one scope: a local call is free; a remote RPC costs 2 messages
   and leaves the thread in place; a remote migration costs 1 message
   and moves the thread; a scope ending away from its origin costs one
   return message.  The simulator must match this exactly for any
   sequence. *)
let mixed_sequence_model ~origin calls =
  let messages = ref 0 in
  let loc = ref origin in
  List.iter
    (fun (home, access) ->
      if home <> !loc then
        match access with
        | Runtime.Rpc -> messages := !messages + 2
        | Runtime.Migrate ->
          incr messages;
          loc := home)
    calls;
  if !loc <> origin then incr messages;
  !messages

let prop_mixed_sequence_messages =
  QCheck.Test.make ~name:"message count of any mixed call sequence matches the model" ~count:100
    QCheck.(list_of_size Gen.(1 -- 25) (pair (int_range 0 7) bool))
    (fun spec ->
      let calls =
        List.map (fun (home, rpc) -> (home, if rpc then Runtime.Rpc else Runtime.Migrate)) spec
      in
      let m = machine () in
      let rt = Runtime.create m in
      Machine.spawn m ~on:0
        (Runtime.scope rt ~result_words:2
           (Thread.iter_list
              (fun (home, access) ->
                Thread.ignore_m
                  (Runtime.call rt ~access ~home ~args_words:8 ~result_words:2
                     (Thread.compute 5)))
              calls));
      Machine.run m;
      Network.total_messages m.Machine.net = mixed_sequence_model ~origin:0 calls)

let prop_scope_always_returns_to_origin =
  QCheck.Test.make ~name:"a scoped activation always ends at its origin" ~count:60
    QCheck.(pair (int_range 0 7) (list_of_size Gen.(1 -- 15) (pair (int_range 0 7) bool)))
    (fun (origin, spec) ->
      let m = machine () in
      let rt = Runtime.create m in
      let ended = ref (-1) in
      Machine.spawn m ~on:origin
        (let open Thread.Infix in
         let* () =
           Runtime.scope rt ~result_words:2
             (Thread.iter_list
                (fun (home, rpc) ->
                  Thread.ignore_m
                    (Runtime.call rt
                       ~access:(if rpc then Runtime.Rpc else Runtime.Migrate)
                       ~home ~args_words:8 ~result_words:2 (Thread.compute 3)))
                spec)
         in
         let* p = Thread.proc in
         ended := Processor.id p;
         Thread.return ());
      Machine.run m;
      !ended = origin)

let prop_rpc_never_moves_thread =
  QCheck.Test.make ~name:"rpc never changes the caller's processor" ~count:40
    QCheck.(list_of_size Gen.(1 -- 10) (int_range 0 7))
    (fun homes ->
      let m = machine () in
      let rt = Runtime.create m in
      let stayed = ref true in
      Machine.spawn m ~on:2
        (let open Thread.Infix in
         Thread.iter_list
           (fun home ->
             let* () =
               Thread.ignore_m
                 (Runtime.call rt ~access:Runtime.Rpc ~home ~args_words:8 ~result_words:2
                    (Thread.compute 3))
             in
             let* p = Thread.proc in
             if Processor.id p <> 2 then stayed := false;
             Thread.return ())
           homes);
      Machine.run m;
      !stayed)

let prop_fig1_cp_never_more_messages =
  QCheck.Test.make ~name:"CP messages <= RPC messages for any n,m" ~count:20
    QCheck.(pair (int_range 1 4) (int_range 1 6))
    (fun (n, m) ->
      fig1_runtime_messages ~access:Runtime.Migrate ~n ~m
      <= fig1_runtime_messages ~access:Runtime.Rpc ~n ~m)



let test_thread_migration_moves_permanently () =
  let m = machine () in
  let rt = Runtime.create m in
  let ended_on = ref (-1) in
  run_thread ~on:0 m
    (let* () = Runtime.migrate_thread rt ~dst:6 ~stack_words:128 in
     let* p = Thread.proc in
     ended_on := Processor.id p;
     Thread.return ());
  Alcotest.(check int) "thread relocated" 6 !ended_on;
  Alcotest.(check int) "counted" 1 (Runtime.thread_migrations rt);
  (* One big message: 128 payload + 2 header words. *)
  Alcotest.(check int) "stack words on the wire" 130 (Network.total_words m.Machine.net)

let test_thread_migration_local_noop () =
  let m = machine () in
  let rt = Runtime.create m in
  run_thread ~on:2 m (Runtime.migrate_thread rt ~dst:2 ~stack_words:64);
  Alcotest.(check int) "no message" 0 (Network.total_messages m.Machine.net);
  Alcotest.(check int) "not counted" 0 (Runtime.thread_migrations rt)

let test_thread_migration_heavier_than_activation () =
  let words_of mech =
    let m = machine () in
    let rt = Runtime.create m in
    run_thread ~on:0 m
      (match mech with
      | `Thread -> Runtime.migrate_thread rt ~dst:5 ~stack_words:256
      | `Activation ->
        Thread.ignore_m
          (Runtime.call rt ~access:Runtime.Migrate ~home:5 ~args_words:8 ~result_words:2
             (Thread.return ())));
    Network.total_words m.Machine.net
  in
  Alcotest.(check bool) "whole thread much heavier" true
    (words_of `Thread > 10 * words_of `Activation)


let test_fetch_residual_round_trip () =
  let m = machine () in
  let rt = Runtime.create m in
  run_thread ~on:0 m
    (let* () =
       Runtime.call rt ~access:Runtime.Migrate ~home:4 ~args_words:4 ~result_words:2
         (Thread.return ())
     in
     Runtime.fetch_residual rt ~origin:0 ~words:16);
  Alcotest.(check int) "one fetch" 1 (Runtime.residual_fetches rt);
  (* migrate + fetch request + fetch reply *)
  Alcotest.(check int) "three messages" 3 (Network.total_messages m.Machine.net);
  (* The reply carries the 16-word residual. *)
  Alcotest.(check bool) "residual words on the wire" true
    (Network.words_of_kind m.Machine.net "rpc_reply" >= 16)

let test_fetch_residual_local_noop () =
  let m = machine () in
  let rt = Runtime.create m in
  run_thread ~on:3 m (Runtime.fetch_residual rt ~origin:3 ~words:16);
  Alcotest.(check int) "no messages" 0 (Network.total_messages m.Machine.net);
  Alcotest.(check int) "not counted" 0 (Runtime.residual_fetches rt)

let test_partial_carry_saves_words_when_unused () =
  let words carried =
    let m = machine () in
    let rt = Runtime.create m in
    run_thread ~on:0 m
      (Runtime.scope rt ~result_words:2
         (Thread.repeat 4 (fun i ->
              Thread.ignore_m
                (Runtime.call rt ~access:Runtime.Migrate ~home:(i + 1) ~args_words:carried
                   ~result_words:2 (Thread.return ())))));
    Network.total_words m.Machine.net
  in
  Alcotest.(check bool) "carrying less is cheaper" true (words 6 < words 24)


(* ------------------------------------------------------------------ *)
(* Object migration (Emerald-style)                                   *)
(* ------------------------------------------------------------------ *)

let mk_objmig ?(n = 8) () =
  let m = machine ~n () in
  let rt = Runtime.create m in
  let space = Objspace.create m in
  let om = Objmig.create rt space ~words_of:(fun (_ : int ref) -> 20) in
  (m, rt, space, om)

let test_objmig_remote_call () =
  let m, _, space, om = mk_objmig () in
  let cell = ref 5 in
  let i = Objspace.register space ~home:4 cell in
  let got = ref 0 in
  run_thread ~on:0 m
    (let* v =
       Objmig.call om i ~args_words:4 ~result_words:2 (fun c ->
           incr c;
           Thread.return !c)
     in
     got := v;
     Thread.return ());
  Alcotest.(check int) "method ran at home" 6 !got;
  Alcotest.(check int) "two messages" 2 (Network.total_messages m.Machine.net);
  Alcotest.(check int) "no forwards" 0 (Objmig.forwards om)

let test_objmig_forwarding_then_learned () =
  let m, _, space, om = mk_objmig () in
  let i = Objspace.register space ~home:2 (ref 0) in
  (* The caller on processor 0 primes its hint... *)
  run_thread ~on:0 m
    (Thread.ignore_m (Objmig.call om i ~args_words:4 ~result_words:2 (fun _ -> Thread.return 0)));
  (* ...then a different thread (on processor 3) moves the object, so
     processor 0's hint goes stale. *)
  run_thread ~on:3 m (Objmig.migrate_object om i ~to_:6);
  let before = Network.total_messages m.Machine.net in
  run_thread ~on:0 m
    (let* _ = Objmig.call om i ~args_words:4 ~result_words:2 (fun _ -> Thread.return 0) in
     Thread.return ());
  let after_first = Network.total_messages m.Machine.net in
  Alcotest.(check int) "forwarded call: call+forward+reply" 3 (after_first - before);
  (* The reply taught processor 0 the new home: next call is direct. *)
  run_thread ~on:0 m
    (let* _ = Objmig.call om i ~args_words:4 ~result_words:2 (fun _ -> Thread.return 0) in
     Thread.return ());
  Alcotest.(check int) "direct call: 2 messages" 2
    (Network.total_messages m.Machine.net - after_first);
  Alcotest.(check int) "one forward" 1 (Objmig.forwards om);
  Alcotest.(check int) "object moved once" 1 (Objmig.object_moves om);
  Alcotest.(check int) "home updated" 6 (Objspace.home space i)

let test_objmig_pull_then_local () =
  let m, _, space, om = mk_objmig () in
  let i = Objspace.register space ~home:5 (ref 0) in
  run_thread ~on:1 m
    (let* () =
       Thread.repeat 4 (fun _ ->
           Thread.ignore_m (Objmig.call_pull om i ~result_words:2 (fun c ->
               incr c;
               Thread.return !c)))
     in
     Thread.return ());
  Alcotest.(check int) "one move only" 1 (Objmig.object_moves om);
  Alcotest.(check int) "object now local to caller" 1 (Objspace.home space i);
  (* Pull = request + transfer; everything after is local. *)
  Alcotest.(check int) "two messages total" 2 (Network.total_messages m.Machine.net)

let test_objmig_writeshared_pingpong_vs_cp () =
  (* The paper's S2.2 claim: for write-shared data, moving the object is
     much worse than moving the computation. *)
  let rounds = 10 in
  let pingpong_words =
    let m, _, space, om = mk_objmig () in
    let i = Objspace.register space ~home:0 (ref 0) in
    let turn = ref 0 in
    for th = 0 to 1 do
      Machine.spawn m ~on:(th + 1)
        (Thread.repeat rounds (fun _ ->
             (* Alternate strictly so the object really ping-pongs. *)
             let* () = Thread.while_ (fun () -> !turn mod 2 <> th) (Thread.sleep 50) in
             let* () =
               Thread.ignore_m
                 (Objmig.call_pull om i ~result_words:2 (fun c ->
                      incr c;
                      Thread.return ()))
             in
             incr turn;
             Thread.return ()))
    done;
    Machine.run m;
    Network.total_words m.Machine.net
  in
  let cp_words =
    let m = machine () in
    let rt = Runtime.create m in
    let cell = ref 0 in
    let turn = ref 0 in
    for th = 0 to 1 do
      Machine.spawn m ~on:(th + 1)
        (Thread.repeat rounds (fun _ ->
             let* () = Thread.while_ (fun () -> !turn mod 2 <> th) (Thread.sleep 50) in
             let* () =
               Runtime.scope rt ~result_words:2
                 (Runtime.call rt ~access:Runtime.Migrate ~home:0 ~args_words:8 ~result_words:2
                    (Thread.return (incr cell)))
             in
             incr turn;
             Thread.return ()))
    done;
    Machine.run m;
    Network.total_words m.Machine.net
  in
  Alcotest.(check bool)
    (Printf.sprintf "object ping-pong (%d words) much heavier than CP (%d words)" pingpong_words
       cp_words)
    true
    (pingpong_words > cp_words)


let prop_objmig_random_moves_and_calls =
  (* Random interleavings of moves and calls from one driver thread:
     every call must observe the object's full history (the state is a
     counter), wherever the object currently lives, and the final home
     must match the last move. *)
  QCheck.Test.make ~name:"mobile object correct under random move/call sequences" ~count:40
    QCheck.(list_of_size Gen.(1 -- 30) (pair (int_range 0 7) bool))
    (fun ops ->
      let m = machine () in
      let rt = Runtime.create m in
      let space = Objspace.create m in
      let om = Objmig.create rt space ~words_of:(fun _ -> 16) in
      let i = Objspace.register space ~home:3 (ref 0) in
      let calls = List.length (List.filter (fun (_, is_call) -> is_call) ops) in
      let seen = ref [] in
      Machine.spawn m ~on:0
        (Thread.iter_list
           (fun (target, is_call) ->
             if is_call then
               let open Thread.Infix in
               let* v =
                 Objmig.call om i ~args_words:4 ~result_words:2 (fun c ->
                     incr c;
                     Thread.return !c)
               in
               seen := v :: !seen;
               Thread.return ()
             else Objmig.migrate_object om i ~to_:target)
           ops);
      Machine.run m;
      let expected_home =
        List.fold_left (fun h (tgt, is_call) -> if is_call then h else tgt) 3 ops
      in
      List.rev !seen = List.init calls (fun k -> k + 1)
      && Objspace.home space i = expected_home)

(* ------------------------------------------------------------------ *)
(* Adaptive mechanism selection                                       *)
(* ------------------------------------------------------------------ *)

(* One annotated access under the policy: [Adaptive.decide] picks the
   mechanism, then the generic call performs the access with it. *)
let adaptive_call rt ad ~site ~home ~args_words ~result_words body =
  let* access = Adaptive.decide ad ~site ~home in
  Runtime.call rt ~access ~home ~args_words ~result_words body

(* A chain workload: each activation hops across [m] objects (one call
   each).  Every site is followed by more calls, so the policy should
   settle on migration. *)
let run_adaptive_chain ~rounds ~m =
  let mach = Machine.create ~seed:2 ~n_procs:(m + 1) ~costs:costs () in
  let rt = Runtime.create mach in
  let ad = Adaptive.create rt ~explore:4 () in
  let sites = Array.init m (fun i -> Adaptive.site ad ~name:(Printf.sprintf "hop%d" i)) in
  run_thread ~on:0 mach
    (Thread.repeat rounds (fun _ ->
         Adaptive.scope ad
           (Thread.iter_list
              (fun i ->
                Thread.ignore_m
                  (adaptive_call rt ad ~site:sites.(i) ~home:(i + 1) ~args_words:8 ~result_words:2
                     (Thread.compute 20)))
              (List.init m (fun i -> i)))));
  (ad, sites, Network.total_messages mach.Machine.net)

let test_adaptive_learns_to_migrate () =
  let ad, sites, _ = run_adaptive_chain ~rounds:30 ~m:6 in
  (* All sites except the last are followed by further calls. *)
  for i = 0 to 4 do
    Alcotest.(check bool)
      (Printf.sprintf "site %d estimate >= 1" i)
      true
      (Adaptive.site_estimate ad sites.(i) >= 1.)
  done;
  Alcotest.(check bool) "last site estimate < 1" true (Adaptive.site_estimate ad sites.(5) < 1.);
  Alcotest.(check bool) "mostly migrations" true
    (Adaptive.chosen_migrations ad > 3 * Adaptive.chosen_rpcs ad)

let test_adaptive_isolated_uses_rpc () =
  (* One isolated access per activation: RPC is the right choice. *)
  let mach = Machine.create ~seed:2 ~n_procs:4 ~costs:costs () in
  let rt = Runtime.create mach in
  let ad = Adaptive.create rt ~explore:4 () in
  let s = Adaptive.site ad ~name:"isolated" in
  run_thread ~on:0 mach
    (Thread.repeat 30 (fun _ ->
         Adaptive.scope ad
           (Thread.ignore_m
              (adaptive_call rt ad ~site:s ~home:2 ~args_words:8 ~result_words:2
                 (Thread.compute 20)))));
  Alcotest.(check bool) "estimate ~0" true (Adaptive.site_estimate ad s < 0.5);
  Alcotest.(check bool) "rpc dominates after exploration" true
    (Adaptive.chosen_rpcs ad > Adaptive.chosen_migrations ad)

let test_adaptive_message_count_near_static_best () =
  let m = 6 and rounds = 40 in
  let _, _, adaptive_msgs = run_adaptive_chain ~rounds ~m in
  let static access =
    let mach = Machine.create ~seed:2 ~n_procs:(m + 1) ~costs:costs () in
    let rt = Runtime.create mach in
    run_thread ~on:0 mach
      (Thread.repeat rounds (fun _ ->
           Runtime.scope rt ~result_words:2
             (Thread.iter_list
                (fun i ->
                  Thread.ignore_m
                    (Runtime.call rt ~access ~home:(i + 1) ~args_words:8 ~result_words:2
                       (Thread.compute 20)))
                (List.init m (fun i -> i)))));
    Network.total_messages mach.Machine.net
  in
  let best = static Runtime.Migrate and worst = static Runtime.Rpc in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive (%d) within 30%% of best static (%d), far from worst (%d)"
       adaptive_msgs best worst)
    true
    (float_of_int adaptive_msgs < 1.3 *. float_of_int best);
  Alcotest.(check bool) "clearly better than static rpc" true
    (float_of_int adaptive_msgs < 0.8 *. float_of_int worst)

let test_adaptive_outside_scope_rejected () =
  let mach = Machine.create ~seed:2 ~n_procs:4 ~costs:costs () in
  let rt = Runtime.create mach in
  let ad = Adaptive.create rt () in
  let s = Adaptive.site ad ~name:"x" in
  let raised = ref false in
  Machine.spawn mach ~on:0
    (fun ctx k ->
      try adaptive_call rt ad ~site:s ~home:1 ~args_words:8 ~result_words:2 (Thread.return ()) ctx k
      with Invalid_argument _ ->
        raised := true;
        k ());
  Machine.run mach;
  Alcotest.(check bool) "rejected outside scope" true !raised

let test_adaptive_create_validates () =
  let rt = Runtime.create (machine ()) in
  Alcotest.check_raises "nan threshold"
    (Invalid_argument "Adaptive.create: threshold = nan, expected a number in [-inf, inf]")
    (fun () -> ignore (Adaptive.create rt ~threshold:nan ()));
  Alcotest.check_raises "negative explore"
    (Invalid_argument "Adaptive.create: explore = -1, expected an integer >= 0") (fun () ->
      ignore (Adaptive.create rt ~explore:(-1) ()));
  (* The ends of the ranges are accepted: never explore, never or
     always migrate. *)
  List.iter
    (fun threshold -> ignore (Adaptive.create rt ~threshold ~explore:0 ()))
    [ infinity; neg_infinity; 0.0 ]

let test_adaptive_sites_independent () =
  (* One chained site and one isolated site in the same program must
     learn different mechanisms. *)
  let mach = Machine.create ~seed:2 ~n_procs:6 ~costs:costs () in
  let rt = Runtime.create mach in
  let ad = Adaptive.create rt ~explore:4 () in
  let chained = Adaptive.site ad ~name:"chained" in
  let lonely = Adaptive.site ad ~name:"lonely" in
  run_thread ~on:0 mach
    (Thread.repeat 30 (fun round ->
         Adaptive.scope ad
           (if round mod 2 = 0 then
              (* chained: three hops *)
              Thread.iter_list
                (fun h ->
                  Thread.ignore_m
                    (adaptive_call rt ad ~site:chained ~home:h ~args_words:8 ~result_words:2
                       (Thread.compute 10)))
                [ 1; 2; 3 ]
            else
              Thread.ignore_m
                (adaptive_call rt ad ~site:lonely ~home:4 ~args_words:8 ~result_words:2
                   (Thread.compute 10)))));
  Alcotest.(check bool) "chained migrates" true (Adaptive.site_estimate ad chained >= 1.);
  Alcotest.(check bool) "lonely stays rpc" true (Adaptive.site_estimate ad lonely < 1.)

(* ------------------------------------------------------------------ *)
(* Replicate                                                          *)
(* ------------------------------------------------------------------ *)

let words_of_int _ = 6

let test_replicate_read_at_home_free () =
  let m = machine () in
  let rt = Runtime.create m in
  let r = Replicate.create rt ~home:2 ~words_of:words_of_int 10 in
  let got = ref 0 in
  run_thread ~on:2 m
    (let* v = Replicate.read r in
     got := v;
     Thread.return ());
  Alcotest.(check int) "value" 10 !got;
  Alcotest.(check int) "no traffic" 0 (Network.total_messages m.Machine.net)

let test_replicate_fetch_once_then_local () =
  let m = machine () in
  let rt = Runtime.create m in
  let r = Replicate.create rt ~home:2 ~words_of:words_of_int 10 in
  run_thread ~on:0 m
    (Thread.repeat 5 (fun _ -> Thread.ignore_m (Replicate.read r)));
  (* One fetch RPC (2 messages); four local reads. *)
  Alcotest.(check int) "two messages" 2 (Network.total_messages m.Machine.net);
  Alcotest.(check int) "one replica" 1 (Replicate.replicas r);
  Alcotest.(check int) "local reads" 4 (Stats.get m.Machine.stats "repl.local_reads")

let test_replicate_update_pushes () =
  let m = machine () in
  let rt = Runtime.create m in
  let r = Replicate.create rt ~home:2 ~words_of:words_of_int 10 in
  (* Two readers install replicas. *)
  Machine.spawn m ~on:0 (Thread.ignore_m (Replicate.read r));
  Machine.spawn m ~on:1 (Thread.ignore_m (Replicate.read r));
  Machine.run m;
  let before = Network.messages_of_kind m.Machine.net "repl_update" in
  (* Update at the home; both replicas must receive the new value. *)
  Machine.spawn m ~on:2 (Replicate.update r ~access:Runtime.Rpc 20);
  Machine.run m;
  Alcotest.(check int) "two pushes" 2 (Network.messages_of_kind m.Machine.net "repl_update" - before);
  Alcotest.(check int) "version bumped" 1 (Replicate.version r);
  Alcotest.(check int) "master updated" 20 (Replicate.peek r);
  (* Readers now see the new value with no further traffic. *)
  let total = Network.total_messages m.Machine.net in
  let got = ref 0 in
  run_thread ~on:0 m
    (let* v = Replicate.read r in
     got := v;
     Thread.return ());
  Alcotest.(check int) "fresh value" 20 !got;
  Alcotest.(check int) "no new traffic" total (Network.total_messages m.Machine.net)

let test_replicate_update_from_remote_migrate () =
  let m = machine () in
  let rt = Runtime.create m in
  let r = Replicate.create rt ~home:2 ~words_of:words_of_int 1 in
  let ended_on = ref (-1) in
  run_thread ~on:0 m
    (let* () = Replicate.update r ~access:Runtime.Migrate 5 in
     let* p = Thread.proc in
     ended_on := Processor.id p;
     Thread.return ());
  Alcotest.(check int) "thread stays at home after migrate-update" 2 !ended_on;
  Alcotest.(check int) "new master" 5 (Replicate.peek r)

(* --- replica update pins ---------------------------------------------

   Seeded update fan-outs pinned by their machine digest, the
   [repl_update] deliveries each processor received, and the order they
   arrived in.  The values were recorded before the RPC update joined
   the frame fan-out the migrating update runs, so they pin the events
   of both mechanisms, and what a duplicated or dropped request does. *)

(* Step [m] until it drains.  An event that delivers a [repl_update]
   message starts the install handler on the holder, so the holder is
   the one processor whose ready queue grew during that event. *)
let run_logging_updates m =
  let tp = Machine.transport m in
  let n = Machine.n_procs m in
  let queues () = Array.init n (fun p -> Processor.queue_length (Machine.proc m p)) in
  let order = ref [] in
  let rec go () =
    let d0 = Transport.delivered tp "repl_update" and q0 = queues () in
    if Sim.step m.Machine.sim then begin
      if Transport.delivered tp "repl_update" > d0 then begin
        let q1 = queues () in
        Array.iteri (fun p q -> if q > q0.(p) then order := p :: !order) q1
      end;
      go ()
    end
  in
  go ();
  List.rev !order

let pin_summary m order =
  let deliveries = Array.make (Machine.n_procs m) 0 in
  List.iter (fun p -> deliveries.(p) <- deliveries.(p) + 1) order;
  Printf.sprintf "deliveries=%s order=%s"
    (String.concat "," (Array.to_list (Array.map string_of_int deliveries)))
    (String.concat "," (List.map string_of_int order))

(* Six readers install replicas of an object homed on processor 2; then
   three updaters (one at the home) issue three updates each after
   random think times, while a late reader on 4 joins mid-run. *)
let pin_updates ~access seed () =
  let m = Machine.create ~seed ~n_procs:8 ~costs () in
  let rt = Runtime.create m in
  let r = Replicate.create rt ~home:2 ~words_of:(fun v -> 4 + (v mod 5)) 0 in
  List.iter (fun p -> Machine.spawn m ~on:p (Thread.ignore_m (Replicate.read r))) [ 0; 1; 3; 5; 6; 7 ];
  Machine.run m;
  List.iteri
    (fun i on ->
      Machine.spawn m ~on
        (Thread.repeat 3 (fun j ->
             let* rng = Thread.rng in
             let* () = Thread.sleep (Rng.int rng 400) in
             Replicate.update r ~access ((10 * i) + j))))
    [ 4; 2; 7 ];
  Machine.spawn m ~on:4
    (let* () = Thread.sleep 300 in
     Thread.ignore_m (Replicate.read r));
  let order = run_logging_updates m in
  Printf.sprintf "%s %s version=%d replicas=%d" (Machine.digest m) (pin_summary m order)
    (Replicate.version r) (Replicate.replicas r)

(* An RPC update from processor 4 under a fault spec on the request
   kind, then a second one with the faults cleared. *)
let pin_faulty_rpc_update fault () =
  let m = Machine.create ~seed:5 ~n_procs:8 ~costs () in
  let rt = Runtime.create m in
  let tp = Machine.transport m in
  let r = Replicate.create rt ~home:2 ~words_of:(fun _ -> 6) 0 in
  List.iter (fun p -> Machine.spawn m ~on:p (Thread.ignore_m (Replicate.read r))) [ 0; 1; 3; 5; 6; 7 ];
  Machine.run m;
  Transport.configure_faults tp ~seed:9 [ ("rpc", fault) ];
  let resumed = ref 0 in
  Machine.spawn m ~on:4 ~on_exit:(fun () -> incr resumed) (Replicate.update r ~access:Runtime.Rpc 1);
  let first = run_logging_updates m in
  Transport.clear_faults tp;
  Machine.spawn m ~on:4 ~on_exit:(fun () -> incr resumed) (Replicate.update r ~access:Runtime.Rpc 2);
  let second = run_logging_updates m in
  Printf.sprintf "%s first: %s second: %s resumed=%d version=%d" (Machine.digest m)
    (pin_summary m first) (pin_summary m second) !resumed (Replicate.version r)

let test_replicate_update_pins () =
  List.iter
    (fun (name, run, expected) -> Alcotest.(check string) name expected (run ()))
    [
      ( "rpc seed 1", pin_updates ~access:Runtime.Rpc 1,
        "768698fa7e9c45f8914bfe8ea9f9bfa4 deliveries=9,9,0,9,6,9,9,9 order=7,6,5,3,1,0,7,6,5,3,1,0,7,6,5,3,1,0,7,6,5,4,3,1,0,7,6,5,4,3,1,0,7,6,5,4,3,1,0,7,6,5,4,3,1,0,7,6,5,4,3,1,0,7,6,5,4,3,1,0 version=9 replicas=7" );
      ( "rpc seed 2", pin_updates ~access:Runtime.Rpc 2,
        "99d040fc58208256d2e4a155d37fb638 deliveries=9,9,0,9,4,9,9,9 order=7,6,5,3,1,0,7,6,5,3,1,0,7,6,5,3,1,0,7,6,5,3,1,0,7,6,5,4,3,1,0,7,6,5,3,1,0,7,6,5,4,3,1,0,7,6,5,4,3,1,0,7,6,5,4,3,1,0 version=9 replicas=7" );
      ( "migrate seed 1", pin_updates ~access:Runtime.Migrate 1,
        "58205ab581316b9f97d1b3b7002ab0e4 deliveries=9,9,0,9,6,9,9,9 order=7,6,5,3,1,0,7,6,5,3,1,0,7,6,5,3,1,0,7,6,5,4,3,1,0,7,6,5,4,3,1,0,7,6,5,4,3,1,0,7,6,5,4,3,1,0,7,6,5,4,3,1,0,7,6,5,4,3,1,0 version=9 replicas=7" );
      ( "migrate seed 2", pin_updates ~access:Runtime.Migrate 2,
        "f4250f6cb4f08bbc830a7df9892a46de deliveries=9,9,0,9,5,9,9,9 order=7,6,5,3,1,0,7,6,5,3,1,0,7,6,5,3,1,0,7,6,5,3,1,0,7,6,5,4,3,1,0,7,6,5,4,3,1,0,7,6,5,4,3,1,0,7,6,5,4,3,1,0,7,6,5,4,3,1,0 version=9 replicas=7" );
    ]

let test_replicate_duplicated_rpc_update () =
  (* Each copy of the request fans out the issue-time snapshot, so every
     holder gets the update twice; each updater resumes once. *)
  Alcotest.(check string) "duplicate p=1 on rpc"
    "5d128ba8991b8e5e1239d6cac9b3456b first: deliveries=2,2,0,2,0,2,2,2 \
     order=7,6,5,3,1,0,7,6,5,3,1,0 second: deliveries=1,1,0,1,0,1,1,1 order=7,6,5,3,1,0 \
     resumed=2 version=2"
    (pin_faulty_rpc_update { Transport.no_fault with duplicate = 1.0 } ())

let test_replicate_dropped_rpc_update () =
  (* The lost request fans out nowhere and its caller never resumes; the
     next update reaches every holder once. *)
  Alcotest.(check string) "drop p=1 on rpc"
    "a557831edac7dc22cb8570238815a79e first: deliveries=0,0,0,0,0,0,0,0 order= second: \
     deliveries=1,1,0,1,0,1,1,1 order=7,6,5,3,1,0 resumed=1 version=2"
    (pin_faulty_rpc_update { Transport.no_fault with drop = 1.0 } ())

(* ------------------------------------------------------------------ *)
(* Prelude facade                                                     *)
(* ------------------------------------------------------------------ *)

let test_prelude_invoke_mutates_at_home () =
  let m = machine () in
  let p = Prelude.create m in
  let counter = Prelude.make_obj p ~home:4 (ref 0) in
  run_thread ~on:0 m
    (Thread.repeat 3 (fun _ ->
         Prelude.invoke p ~access:Prelude.Rpc counter (fun cell ->
             incr cell;
             Thread.return ())));
  Alcotest.(check int) "state mutated" 3 !(Prelude.obj_state p counter)

let test_prelude_annotation_preserves_semantics () =
  (* The same program must compute the same answer under both
     annotations — only performance may differ (paper S3.1). *)
  let result access =
    let m = machine () in
    let p = Prelude.create m in
    let cells = List.init 4 (fun i -> Prelude.make_obj p ~home:(i + 1) (ref ((i + 1) * 7))) in
    let acc = ref 0 in
    run_thread ~on:0 m
      (Prelude.proc p
         (Thread.iter_list
            (fun cell ->
              let* v = Prelude.invoke p ~access cell (fun r -> Thread.return !r) in
              acc := !acc + v;
              Thread.return ())
            cells));
    !acc
  in
  Alcotest.(check int) "same result" (result Prelude.Rpc) (result Prelude.Migrate)

let test_prelude_migrate_fewer_words () =
  let traffic access =
    let m = machine () in
    let p = Prelude.create m in
    let cells = List.init 6 (fun i -> Prelude.make_obj p ~home:(i + 1) i) in
    run_thread ~on:0 m
      (Prelude.proc p
         (Thread.iter_list
            (fun cell ->
              Thread.ignore_m (Prelude.invoke p ~access cell (fun _ -> Thread.return ())))
            cells));
    Network.total_words m.Machine.net
  in
  Alcotest.(check bool) "migrate uses less bandwidth" true
    (traffic Prelude.Migrate < traffic Prelude.Rpc)

let test_prelude_bad_home () =
  let m = machine () in
  let p = Prelude.create m in
  Alcotest.check_raises "bad home" (Invalid_argument "Prelude.make_obj: bad home processor")
    (fun () -> ignore (Prelude.make_obj p ~home:123 ()))

(* ------------------------------------------------------------------ *)

let qsuite props = List.map QCheck_alcotest.to_alcotest props

let () =
  Alcotest.run "cm_runtime"
    [
      ( "objspace",
        [
          Alcotest.test_case "register" `Quick test_objspace_register;
          Alcotest.test_case "bad home" `Quick test_objspace_bad_home;
          Alcotest.test_case "unknown" `Quick test_objspace_unknown;
          Alcotest.test_case "iter" `Quick test_objspace_iter;
          Alcotest.test_case "growth" `Quick test_objspace_growth;
          Alcotest.test_case "reserve keeps objects" `Quick test_objspace_reserve_keeps;
          Alcotest.test_case "reserve is exact" `Quick test_objspace_reserve_exact;
          Alcotest.test_case "reserve validates" `Quick test_objspace_reserve_validates;
        ] );
      ( "call",
        [
          Alcotest.test_case "local no messages" `Quick test_call_local_no_messages;
          Alcotest.test_case "rpc two messages" `Quick test_call_rpc_two_messages;
          Alcotest.test_case "rpc uses server cpu" `Quick test_call_rpc_uses_server_cpu;
          Alcotest.test_case "migrate one message" `Quick test_call_migrate_one_message_and_moves;
          Alcotest.test_case "migrate then local" `Quick test_call_migrate_subsequent_local;
          Alcotest.test_case "site matches call (migrate)" `Quick
            test_site_call_matches_call_migrate;
          Alcotest.test_case "site matches call (rpc)" `Quick test_site_call_matches_call_rpc;
          Alcotest.test_case "site checked fallback" `Quick test_site_call_checked;
          Alcotest.test_case "msite matches scope(call) (migrate)" `Quick
            test_msite_matches_scope_call_migrate;
          Alcotest.test_case "msite matches scope(call) (rpc)" `Quick
            test_msite_matches_scope_call_rpc;
          Alcotest.test_case "msite rebinds on move" `Quick test_msite_rebinds_on_move;
          Alcotest.test_case "msite unscoped sticky" `Quick test_msite_unscoped_sticky;
          Alcotest.test_case "msite checked fallback" `Quick test_msite_checked;
          Alcotest.test_case "msite faults fallback" `Quick test_msite_faults;
          Alcotest.test_case "scope returns home" `Quick test_scope_returns_home;
          Alcotest.test_case "scope at base" `Quick test_scope_at_base_short_circuits;
          Alcotest.test_case "scope local free" `Quick test_scope_local_body_free;
          Alcotest.test_case "rpc handler migrates" `Quick test_rpc_handler_migrates_reply_short_circuit;
          Alcotest.test_case "migration cheaper" `Quick test_migration_cheaper_than_rpc_roundtrip;
          Alcotest.test_case "thread migration moves" `Quick test_thread_migration_moves_permanently;
          Alcotest.test_case "thread migration local noop" `Quick test_thread_migration_local_noop;
          Alcotest.test_case "thread migration heavier" `Quick
            test_thread_migration_heavier_than_activation;
          Alcotest.test_case "residual fetch" `Quick test_fetch_residual_round_trip;
          Alcotest.test_case "residual local noop" `Quick test_fetch_residual_local_noop;
          Alcotest.test_case "partial carry cheaper" `Quick
            test_partial_carry_saves_words_when_unused;
        ] );
      ( "fig1-model",
        [
          Alcotest.test_case "rpc 2nm" `Quick test_fig1_rpc_2nm;
          Alcotest.test_case "cp m+1" `Quick test_fig1_cp_m_plus_1;
          Alcotest.test_case "data migration 2m" `Quick test_fig1_data_migration_2m;
        ]
        @ qsuite
            [
              prop_fig1_cp_never_more_messages;
              prop_mixed_sequence_messages;
              prop_scope_always_returns_to_origin;
              prop_rpc_never_moves_thread;
              prop_msite_digest_oracle;
            ] );
      ( "objmig",
        [
          Alcotest.test_case "remote call" `Quick test_objmig_remote_call;
          Alcotest.test_case "forwarding then learned" `Quick test_objmig_forwarding_then_learned;
          Alcotest.test_case "pull then local" `Quick test_objmig_pull_then_local;
          Alcotest.test_case "write-shared pingpong" `Quick
            test_objmig_writeshared_pingpong_vs_cp;
        ]
        @ qsuite [ prop_objmig_random_moves_and_calls ] );
      ( "adaptive",
        [
          Alcotest.test_case "learns to migrate" `Quick test_adaptive_learns_to_migrate;
          Alcotest.test_case "isolated uses rpc" `Quick test_adaptive_isolated_uses_rpc;
          Alcotest.test_case "near static best" `Quick test_adaptive_message_count_near_static_best;
          Alcotest.test_case "outside scope rejected" `Quick test_adaptive_outside_scope_rejected;
          Alcotest.test_case "sites independent" `Quick test_adaptive_sites_independent;
          Alcotest.test_case "create validates" `Quick test_adaptive_create_validates;
        ] );
      ( "replicate",
        [
          Alcotest.test_case "read at home free" `Quick test_replicate_read_at_home_free;
          Alcotest.test_case "fetch once then local" `Quick test_replicate_fetch_once_then_local;
          Alcotest.test_case "update pushes" `Quick test_replicate_update_pushes;
          Alcotest.test_case "update via migrate" `Quick test_replicate_update_from_remote_migrate;
        ] );
      ( "repl-pins",
        [
          Alcotest.test_case "parent-recorded updates" `Quick test_replicate_update_pins;
          Alcotest.test_case "duplicated rpc update" `Quick test_replicate_duplicated_rpc_update;
          Alcotest.test_case "dropped rpc update" `Quick test_replicate_dropped_rpc_update;
        ] );
      ( "prelude",
        [
          Alcotest.test_case "invoke mutates at home" `Quick test_prelude_invoke_mutates_at_home;
          Alcotest.test_case "annotation preserves semantics" `Quick
            test_prelude_annotation_preserves_semantics;
          Alcotest.test_case "migrate fewer words" `Quick test_prelude_migrate_fewer_words;
          Alcotest.test_case "bad home" `Quick test_prelude_bad_home;
          Alcotest.test_case "proc at base" `Quick test_prelude_proc_at_base;
          Alcotest.test_case "defaults" `Quick test_prelude_defaults;
          Alcotest.test_case "obj home" `Quick test_prelude_obj_home;
        ] );
    ]
