(* Tests for the discrete-event simulation core: Heap, Rng, Zipf, Stats, Sim. *)

open Cm_engine

(* ------------------------------------------------------------------ *)
(* Heap                                                               *)
(* ------------------------------------------------------------------ *)

let int_heap () = Heap.create ~cmp:compare

let test_heap_empty () =
  let h = int_heap () in
  Alcotest.(check int) "length" 0 (Heap.length h);
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "peek" None (Heap.peek h);
  Alcotest.(check (option int)) "pop" None (Heap.pop h)

let test_heap_order () =
  let h = int_heap () in
  List.iter (Heap.push h) [ 5; 3; 8; 1; 9; 2; 7 ];
  Alcotest.(check (option int)) "peek min" (Some 1) (Heap.peek h);
  Alcotest.(check (list int)) "sorted drain" [ 1; 2; 3; 5; 7; 8; 9 ] (Heap.to_sorted_list h);
  Alcotest.(check bool) "empty after drain" true (Heap.is_empty h)

let test_heap_duplicates () =
  let h = int_heap () in
  List.iter (Heap.push h) [ 4; 4; 4; 1; 1 ];
  Alcotest.(check (list int)) "dups kept" [ 1; 1; 4; 4; 4 ] (Heap.to_sorted_list h)

let test_heap_pop_exn () =
  let h = int_heap () in
  Alcotest.check_raises "empty pop_exn" (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Heap.pop_exn h))

let test_heap_clear () =
  let h = int_heap () in
  List.iter (Heap.push h) [ 1; 2; 3 ];
  Heap.clear h;
  Alcotest.(check int) "cleared" 0 (Heap.length h);
  Heap.push h 7;
  Alcotest.(check (option int)) "usable after clear" (Some 7) (Heap.pop h)

let test_heap_interleaved () =
  let h = int_heap () in
  Heap.push h 10;
  Heap.push h 5;
  Alcotest.(check (option int)) "pop 5" (Some 5) (Heap.pop h);
  Heap.push h 1;
  Heap.push h 20;
  Alcotest.(check (option int)) "pop 1" (Some 1) (Heap.pop h);
  Alcotest.(check (option int)) "pop 10" (Some 10) (Heap.pop h);
  Alcotest.(check (option int)) "pop 20" (Some 20) (Heap.pop h)

let test_heap_iter_counts () =
  let h = int_heap () in
  List.iter (Heap.push h) [ 3; 1; 2 ];
  let sum = ref 0 in
  Heap.iter (fun x -> sum := !sum + x) h;
  Alcotest.(check int) "iter visits all" 6 !sum

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drain = List.sort" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = int_heap () in
      List.iter (Heap.push h) xs;
      Heap.to_sorted_list h = List.sort compare xs)

let prop_heap_min =
  QCheck.Test.make ~name:"heap peek is minimum" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) int)
    (fun xs ->
      let h = int_heap () in
      List.iter (Heap.push h) xs;
      Heap.peek h = Some (List.fold_left min (List.hd xs) xs))

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let equal = ref 0 in
  for _ = 1 to 50 do
    if Rng.int64 a = Rng.int64 b then incr equal
  done;
  Alcotest.(check bool) "streams differ" true (!equal < 5)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_bound_one () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 10 do
    Alcotest.(check int) "bound 1 gives 0" 0 (Rng.int r 1)
  done

let test_rng_int_invalid () =
  let r = Rng.create ~seed:3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_float_bounds () =
  let r = Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0. && v < 2.5)
  done

let test_rng_split_independent () =
  let parent = Rng.create ~seed:11 in
  let child = Rng.split parent in
  (* The child stream must not coincide with the parent's continued
     stream. *)
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.int64 parent = Rng.int64 child then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 5)

let test_rng_split_into_matches_split () =
  (* Reseeding a used record in place must equal a fresh split, draw for
     draw, and advance the parent identically. *)
  let a = Rng.create ~seed:19 and b = Rng.create ~seed:19 in
  let reused = Rng.create ~seed:999 in
  for _ = 1 to 37 do
    ignore (Rng.int64 reused)
  done;
  for round = 1 to 100 do
    let fresh = Rng.split a in
    Rng.split_into b reused;
    for _ = 1 to 100 do
      Alcotest.(check int64) (Printf.sprintf "round %d" round) (Rng.int64 fresh) (Rng.int64 reused)
    done
  done;
  Alcotest.(check int64) "parents advanced alike" (Rng.int64 a) (Rng.int64 b)

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:13 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let prop_rng_int_uniformish =
  QCheck.Test.make ~name:"rng int covers range" ~count:20
    QCheck.(int_range 2 20)
    (fun bound ->
      let r = Rng.create ~seed:(bound * 31) in
      let seen = Array.make bound false in
      for _ = 1 to bound * 200 do
        seen.(Rng.int r bound) <- true
      done;
      Array.for_all (fun b -> b) seen)

(* Boxed-Int64 SplitMix64, verbatim from the pre-limb Rng: the
   allocation-free limb implementation must reproduce this stream bit
   for bit — every digest in the repo depends on it. *)
module Rng_ref = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L

  let create ~seed = { state = Int64.of_int seed }

  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int64 t =
    t.state <- Int64.add t.state golden_gamma;
    mix t.state

  let int t bound =
    let raw = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
    raw mod bound

  let float t bound =
    let raw = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
    bound *. (raw /. 9007199254740992.0)

  let bits53 t = Int64.to_int (Int64.shift_right_logical (int64 t) 11)

  let bool t = Int64.logand (int64 t) 1L = 1L

  let split t = { state = int64 t }
end

let test_rng_matches_int64_reference () =
  (* The limb boundary is where a split of the state into two 32-bit
     halves would go wrong: carries into and sign bits of the high limb. *)
  let seeds = [ 0; 1; 42; 12345; -7; max_int; min_int; (1 lsl 32) - 1; 1 lsl 32; -(1 lsl 32); -1 ] in
  List.iter
    (fun seed ->
      let limb = Rng.create ~seed and boxed = Rng_ref.create ~seed in
      for _ = 1 to 1_000 do
        Alcotest.(check int64) "raw output" (Rng_ref.int64 boxed) (Rng.int64 limb)
      done)
    seeds;
  List.iter
    (fun seed ->
      let limb = Rng.create ~seed and boxed = Rng_ref.create ~seed in
      for i = 1 to 1_000 do
        (* Interleave derived draws so slicing (top 62, top 53, low bit)
           is held to the reference too, not just the raw word. *)
        Alcotest.(check int) "int draw" (Rng_ref.int boxed (i + 1)) (Rng.int limb (i + 1));
        Alcotest.(check (float 0.)) "float draw" (Rng_ref.float boxed 1.0) (Rng.float limb 1.0);
        Alcotest.(check int) "bits53 draw" (Rng_ref.bits53 boxed) (Rng.bits53 limb);
        Alcotest.(check bool) "bool draw" (Rng_ref.bool boxed) (Rng.bool limb)
      done;
      (* A child stream is seeded from the parent's next output: [split]
         and [split_into] must both seed it as the reference does, and
         advance the parent alike. *)
      let child = Rng.split limb and child_ref = Rng_ref.split boxed in
      let into = Rng.create ~seed:0 and into_ref = Rng_ref.split boxed in
      Rng.split_into limb into;
      for _ = 1 to 100 do
        Alcotest.(check int64) "split child" (Rng_ref.int64 child_ref) (Rng.int64 child);
        Alcotest.(check int64) "split_into child" (Rng_ref.int64 into_ref) (Rng.int64 into)
      done;
      Alcotest.(check int64) "parent after splits" (Rng_ref.int64 boxed) (Rng.int64 limb))
    (99 :: seeds)

(* [bits53_at ~seed k] must be the (k+1)-th draw of [create ~seed]:
   [Social_graph] reads its edges back this way from a stream it drew
   degrees from with [Rng.int], so every entry point must take exactly
   one output.  The second pass interleaves [int], [float], [bool] and
   [int64] draws between the [bits53] positions it compares. *)
let check_bits53_at seed =
  let stepped = Rng.create ~seed in
  for k = 0 to 100_000 do
    let want = Rng.bits53 stepped in
    let got = Rng.bits53_at ~seed k in
    if got <> want then Alcotest.failf "seed %d, k %d: bits53_at %d, stepped %d" seed k got want
  done;
  let mixed = Rng.create ~seed in
  for k = 0 to 10_000 do
    match k mod 5 with
    | 0 -> ignore (Rng.int mixed (k + 1) : int)
    | 1 -> ignore (Rng.float mixed 1.0 : float)
    | 2 -> ignore (Rng.bool mixed : bool)
    | 3 -> ignore (Rng.int64 mixed : int64)
    | _ ->
      let want = Rng.bits53 mixed in
      if Rng.bits53_at ~seed k <> want then Alcotest.failf "seed %d, mixed draw %d" seed k
  done

let test_rng_bits53_at_matches_stepping () =
  List.iter check_bits53_at [ 0; 1; -1; min_int; max_int; 42; 1 lsl 32; -(1 lsl 32) ]

let prop_rng_bits53_at_random_seeds =
  QCheck.Test.make ~name:"bits53_at = stepping, random seeds" ~count:10 QCheck.int (fun seed ->
      check_bits53_at seed;
      true)

(* Minor words [f] allocates. *)
let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Every per-op draw must allocate nothing: this holds only while
   [Rng.step]'s [int64] locals stay unboxed and it is inlined into each
   entry point, which the typed hot-alloc lint cannot see.  [Rng.float]
   also guards the build: a [float] returned across a module boundary
   is boxed (two words per call) unless the call is inlined, and
   ocamlopt inlines across modules only without [-opaque].  The
   release profile that dune-workspace selects leaves [-opaque] out;
   built with [-opaque] again (dune's dev profile), this case fails. *)
let test_samplers_allocate_nothing () =
  let draws = 100_000 in
  let r = Rng.create ~seed:5 and dst = Rng.create ~seed:0 in
  let check name f = Alcotest.(check (float 0.)) name 0. (minor_words_of f) in
  let acc = ref 0 in
  check "Rng.int" (fun () ->
      for i = 1 to draws do
        acc := !acc + Rng.int r i
      done);
  check "Rng.bits53" (fun () ->
      for _ = 1 to draws do
        acc := !acc lxor Rng.bits53 r
      done);
  check "Rng.float" (fun () ->
      for _ = 1 to draws do
        if Rng.float r 1.0 < 0.5 then incr acc
      done);
  check "Rng.bool" (fun () ->
      for _ = 1 to draws do
        if Rng.bool r then incr acc
      done);
  check "Rng.split_into" (fun () ->
      for _ = 1 to draws do
        Rng.split_into r dst
      done);
  check "Rng.bits53_at" (fun () ->
      for k = 1 to draws do
        acc := !acc lxor Rng.bits53_at ~seed:5 k
      done);
  List.iter
    (fun s ->
      let z = Zipf.create ~s ~n:1_000_000 in
      check (Printf.sprintf "Zipf.sample s=%g" s) (fun () ->
          for _ = 1 to draws do
            acc := !acc + Zipf.sample z r
          done);
      check (Printf.sprintf "Zipf.sample_bits s=%g" s) (fun () ->
          for k = 1 to draws do
            acc := !acc + Zipf.sample_bits z (Rng.bits53_at ~seed:5 k)
          done))
    [ 0.8; 1.3 ];
  ignore (Sys.opaque_identity !acc)

(* ------------------------------------------------------------------ *)
(* Zipf                                                               *)
(* ------------------------------------------------------------------ *)

(* The pre-guide-table sampler, verbatim: one binary search over the
   whole CDF.  The guided sampler must return the same rank for every
   draw — every digest in the repo depends on it. *)
module Zipf_ref = struct
  type t = { cdf : float array }

  let create ~s ~n =
    if n <= 0 then invalid_arg "Zipf.create: n must be positive";
    if s < 0. then invalid_arg "Zipf.create: negative exponent";
    let cdf = Array.make n 0. in
    let acc = ref 0. in
    for k = 0 to n - 1 do
      acc := !acc +. (1. /. (float_of_int (k + 1) ** s));
      cdf.(k) <- !acc
    done;
    let total = !acc in
    for k = 0 to n - 1 do
      cdf.(k) <- cdf.(k) /. total
    done;
    { cdf }

  let sample t rng =
    let u = float_of_int (Rng.bits53 rng) /. 9007199254740992.0 (* 2^53 *) in
    let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
end

(* n = 1 (a one-word guide span), the smallest guides, and both sides of
   the 2^12 cap on the guide size. *)
let zipf_sizes = [ 1; 2; 3; 1000; 4_096; 4_097; 65_537; 200_000 ]

(* Draw for draw, [Zipf.sample] agrees with the reference and with
   [Zipf.sample_bits] of the same 53 bits, read back by counter. *)
let zipf_draws_agree ~s ~n ~seed ~draws =
  let z = Zipf.create ~s ~n and r = Zipf_ref.create ~s ~n in
  let a = Rng.create ~seed and b = Rng.create ~seed in
  let ok = ref true in
  for k = 0 to draws - 1 do
    let rank = Zipf.sample z a in
    if rank <> Zipf_ref.sample r b || rank <> Zipf.sample_bits z (Rng.bits53_at ~seed k) then
      ok := false
  done;
  !ok

let prop_zipf_matches_full_search =
  QCheck.Test.make ~name:"zipf guided draws = full-range binary search" ~count:60
    (QCheck.make
       ~print:(fun (s, n, seed) -> Printf.sprintf "s=%.17g n=%d seed=%d" s n seed)
       QCheck.Gen.(
         triple (frequency [ (1, return 0.); (4, float_range 0. 5.) ]) (oneofl zipf_sizes) int))
    (fun (s, n, seed) -> zipf_draws_agree ~s ~n ~seed ~draws:2_000)

let test_zipf_every_size () =
  List.iter
    (fun n ->
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (Printf.sprintf "s=%g n=%d" s n)
            true
            (zipf_draws_agree ~s ~n ~seed:(n + 42) ~draws:5_000))
        [ 0.; 0.99; 1.3; 2. ])
    zipf_sizes;
  (* The workloads' two shapes at their size, and steep exponents whose
     saturated last guide bucket spans over 10^4 ranks, so the binary
     search behind the interpolation probes runs. *)
  List.iter
    (fun (s, n) ->
      Alcotest.(check bool)
        (Printf.sprintf "s=%g n=%d" s n)
        true
        (zipf_draws_agree ~s ~n ~seed:(n + 42) ~draws:20_000))
    [ (0.8, 1_000_000); (1.3, 1_000_000); (2., 200_000); (5., 200_000) ]

let test_zipf_mass_sums_to_one () =
  List.iter
    (fun (s, n) ->
      let z = Zipf.create ~s ~n in
      let sum = ref 0. in
      for k = 0 to n - 1 do
        sum := !sum +. Zipf.mass z k
      done;
      Alcotest.(check (float 1e-9)) (Printf.sprintf "s=%g n=%d" s n) 1. !sum)
    [ (0., 1); (0., 1000); (0.99, 65_537); (1.3, 200_000); (2., 3) ]

let test_zipf_rejects_bad_exponent () =
  Alcotest.check_raises "nan" (Invalid_argument "Zipf.create: exponent must be s >= 0, got nan")
    (fun () -> ignore (Zipf.create ~s:Float.nan ~n:10));
  Alcotest.check_raises "negative" (Invalid_argument "Zipf.create: exponent must be s >= 0, got -1")
    (fun () -> ignore (Zipf.create ~s:(-1.) ~n:10));
  Alcotest.check_raises "empty" (Invalid_argument "Zipf.create: n must be positive") (fun () ->
      ignore (Zipf.create ~s:1. ~n:0))

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let test_stats_counters () =
  let s = Stats.create () in
  Alcotest.(check int) "default 0" 0 (Stats.get s "x");
  Stats.incr s "x";
  Stats.incr s "x";
  Stats.add s "x" 5;
  Alcotest.(check int) "accumulated" 7 (Stats.get s "x");
  Stats.add s "y" (-3);
  Alcotest.(check int) "negative ok" (-3) (Stats.get s "y")

let test_stats_listing () =
  let s = Stats.create () in
  Stats.add s "b" 2;
  Stats.add s "a" 1;
  Alcotest.(check (list (pair string int))) "sorted" [ ("a", 1); ("b", 2) ] (Stats.counters s)

(* A cell resolved but never written is not listed, so the run digest
   equals that of a registry that never resolved it; writing 0 lists it. *)
let test_stats_unwritten_unlisted () =
  let plain = Stats.create () and resolved = Stats.create () in
  Stats.add plain "a" 1;
  Stats.add resolved "a" 1;
  let c = Stats.counter resolved "b" in
  let digest stats = Cm_machine.Machine.digest_of_run ~clock:7 ~fired:3 ~stats in
  Alcotest.(check (list (pair string int))) "resolved unlisted" [ ("a", 1) ]
    (Stats.counters resolved);
  Alcotest.(check string) "digest as if never resolved" (digest plain) (digest resolved);
  Stats.Counter.add c 0;
  Alcotest.(check (list (pair string int))) "zero write listed" [ ("a", 1); ("b", 0) ]
    (Stats.counters resolved);
  Alcotest.(check bool) "digest moves" true (digest plain <> digest resolved)

(* ------------------------------------------------------------------ *)
(* Sim                                                                *)
(* ------------------------------------------------------------------ *)

let test_sim_order () =
  let sim = Sim.create () in
  let log = ref [] in
  let mark tag () = log := tag :: !log in
  Sim.at sim 30 (mark "c");
  Sim.at sim 10 (mark "a");
  Sim.at sim 20 (mark "b");
  Sim.run sim;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 30 (Sim.now sim)

let test_sim_fifo_same_time () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.at sim 10 (fun () -> log := i :: !log)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_sim_after_relative () =
  let sim = Sim.create () in
  let fired_at = ref (-1) in
  Sim.after sim 5 (fun () ->
      Sim.after sim 7 (fun () -> fired_at := Sim.now sim));
  Sim.run sim;
  Alcotest.(check int) "nested relative" 12 !fired_at

let test_sim_past_rejected () =
  let sim = Sim.create () in
  Sim.after sim 10 (fun () ->
      Alcotest.check_raises "past" (Invalid_argument "Sim.at: time 3 is before now (10)")
        (fun () -> Sim.at sim 3 ignore));
  Sim.run sim

let test_sim_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Sim.at sim (i * 10) (fun () -> incr count)
  done;
  Sim.run ~until:55 sim;
  Alcotest.(check int) "events before horizon" 5 !count;
  Alcotest.(check int) "clock stops at horizon" 55 (Sim.now sim);
  Alcotest.(check int) "rest still pending" 5 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check int) "resume finishes" 10 !count

let test_sim_stop () =
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.at sim 1 (fun () -> incr count);
  Sim.at sim 2 (fun () -> raise Sim.Stop);
  Sim.at sim 3 (fun () -> incr count);
  Sim.run sim;
  Alcotest.(check int) "stopped early" 1 !count

let test_sim_timer_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let tok = Sim.timer sim ~delay:30 (Sim.handler sim (fun _ -> fired := true)) 0 in
  Sim.at sim 20 ignore;
  Alcotest.(check int) "pending counts timer" 2 (Sim.pending sim);
  Alcotest.(check bool) "cancel pending" true (Sim.cancel sim tok);
  Alcotest.(check bool) "cancel is one-shot" false (Sim.cancel sim tok);
  Alcotest.(check int) "pending drops" 1 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check bool) "cancelled timer did not fire" false !fired;
  Alcotest.(check int) "cancelled not counted" 1 (Sim.events_fired sim);
  Alcotest.(check int) "clock not advanced by cancelled event" 20 (Sim.now sim)

let test_sim_timer_fires () =
  let sim = Sim.create () in
  let fired_at = ref (-1) in
  let tok = Sim.timer sim ~delay:7 (Sim.handler sim (fun _ -> fired_at := Sim.now sim)) 0 in
  Sim.run sim;
  Alcotest.(check int) "timer fired on time" 7 !fired_at;
  Alcotest.(check bool) "cancel after fire is false" false (Sim.cancel sim tok);
  match Sim.timer sim ~delay:1 Sim.nil_handler 0 with
  | _ -> Alcotest.fail "timer on an unregistered handler accepted"
  | exception Invalid_argument _ -> ()

let test_sim_cancel_stale_token () =
  let sim = Sim.create () in
  let tok1 = Sim.timer sim ~delay:1 (Sim.handler sim ignore) 0 in
  Sim.run sim;
  Alcotest.(check bool) "fired token dead" false (Sim.cancel sim tok1);
  (* The fired event's pool slot is recycled for the next timer; the
     stale token's generation no longer matches, so it must not cancel
     the new occupant. *)
  let fired = ref false in
  let _tok2 = Sim.timer sim ~delay:1 (Sim.handler sim (fun _ -> fired := true)) 0 in
  Alcotest.(check bool) "stale token still dead" false (Sim.cancel sim tok1);
  Sim.run sim;
  Alcotest.(check bool) "new timer unaffected by stale cancel" true !fired

let test_sim_post_handler () =
  let sim = Sim.create () in
  let log = ref [] in
  let hid = Sim.handler sim (fun arg -> log := (Sim.now sim, arg) :: !log) in
  Sim.post sim ~time:5 hid 42;
  Sim.post_after sim ~delay:2 hid 7;
  Sim.after sim 3 (fun () -> log := (Sim.now sim, -1) :: !log);
  Sim.run sim;
  Alcotest.(check (list (pair int int)))
    "posts interleave with closure events"
    [ (2, 7); (3, -1); (5, 42) ]
    (List.rev !log)

let test_sim_post_unregistered () =
  let sim = Sim.create () in
  let other = Sim.create () in
  let hid = Sim.handler other (fun _ -> ()) in
  Alcotest.check_raises "foreign handler"
    (Invalid_argument "Sim.post: handler not registered here") (fun () ->
      Sim.post sim ~time:1 hid 0)

let test_sim_until_rejects_past () =
  let sim = Sim.create () in
  Sim.at sim 100 ignore;
  Sim.run ~until:55 sim;
  Alcotest.(check int) "clock exactly at horizon" 55 (Sim.now sim);
  Alcotest.(check int) "pending intact" 1 (Sim.pending sim);
  (* After a horizon stop the clock has really moved: pre-horizon times
     are the past now. *)
  Alcotest.check_raises "pre-horizon schedule rejected"
    (Invalid_argument "Sim.at: time 54 is before now (55)") (fun () -> Sim.at sim 54 ignore);
  (* Scheduling exactly at the horizon is allowed. *)
  Sim.at sim 55 ignore;
  Sim.run sim;
  Alcotest.(check int) "resumes to completion" 100 (Sim.now sim)

let test_sim_far_future () =
  (* A 4-bucket wheel: the far event lives in the overflow rung through
     many full rotations before migrating into a bucket. *)
  let sim = Sim.create ~wheel_bits:2 () in
  let log = ref [] in
  List.iter (fun t -> Sim.at sim t (fun () -> log := t :: !log)) [ 100_000; 3; 40 ];
  Sim.run sim;
  Alcotest.(check (list int)) "overflow drains in order" [ 3; 40; 100_000 ] (List.rev !log);
  Alcotest.(check int) "clock at far event" 100_000 (Sim.now sim)

let test_sim_wheel_bits_validated () =
  let reject bits =
    Alcotest.check_raises
      (Printf.sprintf "wheel_bits %d" bits)
      (Invalid_argument "Sim.create: wheel_bits out of range [1,22]")
      (fun () -> ignore (Sim.create ~wheel_bits:bits ()))
  in
  reject 0;
  reject 23;
  ignore (Sim.create ~wheel_bits:1 ());
  ignore (Sim.create ~wheel_bits:22 ())

let test_sim_step () =
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.at sim 1 (fun () -> incr count);
  Sim.at sim 2 (fun () -> incr count);
  Alcotest.(check bool) "step fires" true (Sim.step sim);
  Alcotest.(check int) "one fired" 1 !count;
  Alcotest.(check bool) "step fires" true (Sim.step sim);
  Alcotest.(check bool) "exhausted" false (Sim.step sim);
  Alcotest.(check int) "events_fired" 2 (Sim.events_fired sim)

let prop_sim_fires_in_order =
  QCheck.Test.make ~name:"sim fires in nondecreasing time order" ~count:100
    QCheck.(list_of_size Gen.(1 -- 100) (int_range 0 1000))
    (fun times ->
      let sim = Sim.create () in
      let fired = ref [] in
      List.iter (fun t -> Sim.at sim t (fun () -> fired := Sim.now sim :: !fired)) times;
      Sim.run sim;
      let fired = List.rev !fired in
      fired = List.sort compare times)

(* --- calendar queue vs. binary-heap oracle -------------------------- *)

(* Reference scheduler with the same (time, seq) contract, built on the
   generic Heap — the structure the old Sim used.  The property below
   drives identical schedules through both and demands identical firing
   orders, which is exactly the digest-preservation argument for the
   calendar queue (DESIGN.md §13). *)
module Oracle = struct
  type t = {
    h : (int * int * int) Heap.t;  (* time, seq, id *)
    mutable clock : int;
    mutable seq : int;
  }

  let create () = { h = Heap.create ~cmp:compare; clock = 0; seq = 0 }

  let at o time id =
    Heap.push o.h (time, o.seq, id);
    o.seq <- o.seq + 1

  let run o fire =
    let rec go () =
      match Heap.pop o.h with
      | None -> ()
      | Some (time, _, id) ->
        o.clock <- time;
        fire id;
        go ()
    in
    go ()
end

(* A script is a list of top-level events (absolute time, child delays);
   each event, when it fires, schedules its children relative to its own
   fire time.  Ids are assigned positionally so both sides agree on them
   without reference to execution order. *)
let assign_ids script =
  let n_top = List.length script in
  let next = ref n_top in
  let items =
    List.map
      (fun (time, kids) ->
        ( time,
          List.map
            (fun d ->
              let id = !next in
              incr next;
              (id, d))
            kids ))
      script
  in
  let kids_of = Array.make (max 1 !next) [] in
  List.iteri (fun i (_, kids) -> kids_of.(i) <- kids) items;
  (items, kids_of)

(* Run a script through the real simulator.  Events alternate between
   the closure API ([at]/[after]) and the pooled-handler API
   ([post]/[post_after]) by id parity, so the property also checks that
   the two kinds interleave in one (time, seq) order.  A small wheel
   forces overflow spills and many rotations. *)
let run_real ~wheel_bits script =
  let items, kids_of = assign_ids script in
  let sim = Sim.create ~wheel_bits () in
  let log = ref [] in
  let hid_cell = ref None in
  let rec fire id =
    log := (Sim.now sim, id) :: !log;
    List.iter
      (fun (cid, d) ->
        if cid mod 2 = 0 then Sim.after sim d (fun () -> fire cid)
        else
          match !hid_cell with
          | Some h -> Sim.post_after sim ~delay:d h cid
          | None -> assert false)
      kids_of.(id)
  in
  hid_cell := Some (Sim.handler sim fire);
  List.iteri
    (fun i (time, _) ->
      if i mod 2 = 0 then Sim.at sim time (fun () -> fire i)
      else
        match !hid_cell with
        | Some h -> Sim.post sim ~time h i
        | None -> assert false)
    items;
  Sim.run sim;
  List.rev !log

let run_oracle script =
  let items, kids_of = assign_ids script in
  let o = Oracle.create () in
  let log = ref [] in
  let fire id =
    log := (o.Oracle.clock, id) :: !log;
    List.iter (fun (cid, d) -> Oracle.at o (o.Oracle.clock + d) cid) kids_of.(id)
  in
  List.iteri (fun i (time, _) -> Oracle.at o time i) items;
  Oracle.run o fire;
  List.rev !log

let script_gen =
  (* Times within a few wheel revolutions of a 4..16-bucket wheel; child
     delays reaching far past the window so events spill to the overflow
     rung and migrate back as the wheel rotates. *)
  QCheck.(
    list_of_size
      Gen.(1 -- 30)
      (pair (int_range 0 50) (small_list (int_range 0 300))))

let prop_sim_matches_heap_oracle =
  QCheck.Test.make ~name:"calendar queue = binary-heap oracle" ~count:300 script_gen
    (fun script ->
      let expect = run_oracle script in
      run_real ~wheel_bits:2 script = expect && run_real ~wheel_bits:4 script = expect)

let prop_sim_cancel_subset =
  QCheck.Test.make ~name:"cancel removes exactly the cancelled timers" ~count:200
    QCheck.(list_of_size Gen.(1 -- 40) (pair (int_range 0 200) bool))
    (fun spec ->
      let sim = Sim.create ~wheel_bits:3 () in
      let fired = ref [] in
      let fire = Sim.handler sim (fun i -> fired := i :: !fired) in
      let toks = List.mapi (fun i (d, _) -> Sim.timer sim ~delay:d fire i) spec in
      (* Cancelling a pending timer reports true exactly once. *)
      let cancelled_ok =
        List.for_all2 (fun tok (_, c) -> (not c) || Sim.cancel sim tok) toks spec
      in
      let expect =
        spec
        |> List.mapi (fun i (d, c) -> (d, i, c))
        |> List.filter (fun (_, _, c) -> not c)
        |> List.map (fun (d, i, _) -> (d, i))
        |> List.sort compare
        |> List.map snd
      in
      Sim.run sim;
      (* Every token is dead after the run, cancelled or fired. *)
      let all_dead = List.for_all (fun tok -> not (Sim.cancel sim tok)) toks in
      cancelled_ok && all_dead && List.rev !fired = expect)


(* ------------------------------------------------------------------ *)
(* Heap / Sim edges                                                   *)
(* ------------------------------------------------------------------ *)

let test_heap_large_grow () =
  let h = Heap.create ~cmp:compare in
  for i = 1000 downto 1 do
    Heap.push h i
  done;
  Alcotest.(check int) "all present" 1000 (Heap.length h);
  Alcotest.(check (option int)) "min" (Some 1) (Heap.peek h);
  let drained = Heap.to_sorted_list h in
  Alcotest.(check int) "drained all" 1000 (List.length drained);
  Alcotest.(check (option int)) "sorted ends" (Some 1000)
    (List.nth_opt drained 999)

let test_sim_schedule_inside_handler () =
  let sim = Sim.create () in
  let fired = ref [] in
  Sim.at sim 10 (fun () ->
      fired := 10 :: !fired;
      (* Scheduling for the current instant is allowed and fires after
         the running handler. *)
      Sim.after sim 0 (fun () -> fired := 100 :: !fired);
      Sim.after sim 5 (fun () -> fired := 15 :: !fired));
  Sim.run sim;
  Alcotest.(check (list int)) "nested events fire in order" [ 10; 100; 15 ] (List.rev !fired)

(* Observational equivalence of the interned-handle API and the
   string-keyed API: the same interleaving of operations, one registry
   driven through handles wherever possible and one through strings
   only, must yield identical listings — including which names exist at
   all (a resolved cell is listed only once written, 0 included). *)
let prop_stats_handles_equal_strings =
  QCheck.Test.make ~name:"interned handles = string API" ~count:200
    QCheck.(list (triple (int_range 0 3) (int_range 0 4) small_int))
    (fun ops ->
      let names = [| "alpha"; "beta"; "gamma"; "delta" |] in
      let s = Stats.create () and h = Stats.create () in
      (* Resolved before any write: must not list the counters. *)
      let hc = Array.map (fun n -> Stats.counter h n) names in
      let pre_ok = Stats.counters h = [] in
      List.iter
        (fun (k, op, n) ->
          let name = names.(k) in
          match op with
          | 0 ->
            Stats.incr s name;
            Stats.Counter.incr hc.(k)
          | 1 ->
            Stats.add s name n;
            Stats.Counter.add hc.(k) n
          | 2 ->
            (* The two APIs may be mixed on one name. *)
            Stats.incr s name;
            Stats.incr h name
          | 3 ->
            (* A handle resolved mid-stream is the existing cell. *)
            Stats.add s name n;
            Stats.Counter.add (Stats.counter h name) n
          | _ ->
            (* A zero write still lists the name. *)
            Stats.add s name 0;
            Stats.Counter.add hc.(k) 0)
        ops;
      pre_ok
      && Stats.counters s = Stats.counters h
      && Array.for_all
           (fun c -> Stats.Counter.get c = Stats.get h (Stats.Counter.name c))
           hc)

(* ------------------------------------------------------------------ *)

let qsuite props = List.map QCheck_alcotest.to_alcotest props

let () =
  Alcotest.run "cm_engine"
    [
      ( "heap",
        [
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
          Alcotest.test_case "pop_exn" `Quick test_heap_pop_exn;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
          Alcotest.test_case "iter" `Quick test_heap_iter_counts;
        ]
        @ qsuite [ prop_heap_sorts; prop_heap_min ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int bound one" `Quick test_rng_int_bound_one;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "split_into matches split" `Quick test_rng_split_into_matches_split;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "limbs match Int64 reference" `Quick
            test_rng_matches_int64_reference;
          Alcotest.test_case "samplers allocate nothing" `Quick test_samplers_allocate_nothing;
          Alcotest.test_case "bits53_at matches stepping" `Quick
            test_rng_bits53_at_matches_stepping;
        ]
        @ qsuite [ prop_rng_int_uniformish; prop_rng_bits53_at_random_seeds ] );
      ( "zipf",
        [
          Alcotest.test_case "matches full search at every size" `Quick test_zipf_every_size;
          Alcotest.test_case "mass sums to one" `Quick test_zipf_mass_sums_to_one;
          Alcotest.test_case "rejects nan and negative exponent" `Quick
            test_zipf_rejects_bad_exponent;
        ]
        @ qsuite [ prop_zipf_matches_full_search ] );
      ( "stats",
        [
          Alcotest.test_case "counters" `Quick test_stats_counters;
          Alcotest.test_case "listing" `Quick test_stats_listing;
          Alcotest.test_case "unwritten cells unlisted" `Quick test_stats_unwritten_unlisted;
        ] );
      ( "edges",
        [
          Alcotest.test_case "heap large grow" `Quick test_heap_large_grow;
          Alcotest.test_case "sim nested scheduling" `Quick test_sim_schedule_inside_handler;
        ]
        @ qsuite [ prop_stats_handles_equal_strings ] );
      ( "sim",
        [
          Alcotest.test_case "order" `Quick test_sim_order;
          Alcotest.test_case "fifo ties" `Quick test_sim_fifo_same_time;
          Alcotest.test_case "after relative" `Quick test_sim_after_relative;
          Alcotest.test_case "past rejected" `Quick test_sim_past_rejected;
          Alcotest.test_case "until horizon" `Quick test_sim_until;
          Alcotest.test_case "until rejects past" `Quick test_sim_until_rejects_past;
          Alcotest.test_case "stop" `Quick test_sim_stop;
          Alcotest.test_case "step" `Quick test_sim_step;
          Alcotest.test_case "timer cancel" `Quick test_sim_timer_cancel;
          Alcotest.test_case "timer fires" `Quick test_sim_timer_fires;
          Alcotest.test_case "stale token" `Quick test_sim_cancel_stale_token;
          Alcotest.test_case "post handler" `Quick test_sim_post_handler;
          Alcotest.test_case "post unregistered" `Quick test_sim_post_unregistered;
          Alcotest.test_case "far future" `Quick test_sim_far_future;
          Alcotest.test_case "wheel bits validated" `Quick test_sim_wheel_bits_validated;
        ]
        @ qsuite
            [ prop_sim_fires_in_order; prop_sim_matches_heap_oracle; prop_sim_cancel_subset ] );
    ]
