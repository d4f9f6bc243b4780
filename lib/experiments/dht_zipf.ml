open Cm_engine
open Cm_machine
open Cm_apps

(* "Millions of users" made concrete: the full-size run keeps 10^6 keys
   live in the table's flat buckets on a 1024-processor machine, with
   Zipf-skewed key popularity concentrating traffic on a few hot
   buckets.  Quick mode shrinks every axis for CI. *)
type size = {
  node_procs : int;
  requesters : int;
  keys : int;
  buckets : int;
  horizon : int;
}

let size ~quick =
  if quick then
    { node_procs = 16; requesters = 8; keys = 20_000; buckets = 1_024; horizon = 120_000 }
  else
    {
      node_procs = 960;
      requesters = 64;
      keys = 1_000_000;
      buckets = 65_536;
      horizon = 400_000;
    }

let bucket_capacity = 64

let modes =
  [ Dht.Messaging Cm_core.Prelude.Rpc; Dht.Messaging Cm_core.Prelude.Migrate; Dht.Adaptive ]

(* Exponents: 0.99 is YCSB's "zipfian"; 1.3 is a hot-key regime where
   the top handful of keys dominate the traffic. *)
let skews = [ 0.99; 1.3 ]

(* 80% reads / 20% updates on the same skewed popularity — keys are
   preloaded, so updates overwrite in place and buckets never grow.
   The loop is direct-style: the rng read and both table calls are
   saturated applications, and the get's result-dropping continuation
   is cached per requester (the driver passes the same [k] every
   iteration), so a steady-state request allocates nothing beyond the
   call itself. *)
let request table zipf _i =
  let drop = ref None in
  fun c k ->
    let dropk =
      match !drop with
      | Some (k0, f) when k0 == k -> f
      | _ ->
        let f (_ : int option) = k () in
        drop := Some (k, f);
        f
    in
    let r = Thread.Frame.rng c in
    let key = Zipf.sample zipf r in
    if Rng.int r 10 < 8 then Dht.get table key c dropk else Dht.put table ~key ~value:key c k

let machine ~quick =
  let sz = size ~quick in
  Machine.create ~seed:42 ~n_procs:(sz.node_procs + sz.requesters) ~costs:Costs.software ()

let measure ~quick machine mode skew =
  let sz = size ~quick in
  let env = Sysenv.make machine in
  let table =
    Dht.create env ~buckets:sz.buckets ~bucket_capacity ~mode
      ~node_procs:(Array.init sz.node_procs (fun i -> i))
      ()
  in
  (* The table's 10^6 entries are installed directly — real time, not
     simulated time; the measurement window sees a full, steady-state
     table from its first cycle. *)
  for k = 0 to sz.keys - 1 do
    Dht.preload table ~key:k ~value:k
  done;
  let zipf = Zipf.create ~s:skew ~n:sz.keys in
  Cm_workload.Driver.run machine
    {
      Cm_workload.Driver.requesters = sz.requesters;
      first_proc = sz.node_procs;
      think = 0;
      warmup = sz.horizon / 5;
      horizon = sz.horizon;
    }
    (request table zipf)

let jobs ~quick =
  List.concat_map
    (fun skew ->
      List.map
        (fun mode () ->
          let machine = machine ~quick in
          Plan.digested (machine, measure ~quick machine mode skew))
        modes)
    skews

let render ~quick results =
  let sz = size ~quick in
  Report.text (fun b ->
      Report.header b "Extension: Zipf-skewed DHT traffic (hot keys at scale)";
      Printf.bprintf b "   %d keys, %d buckets, %d node procs, %d requesters\n" sz.keys sz.buckets
        sz.node_procs sz.requesters;
      List.iter2
        (fun skew ms ->
          let z = Zipf.create ~s:skew ~n:sz.keys in
          Printf.bprintf b "\n-- zipf s=%.2f (hottest key %.1f%% of traffic) --\n" skew
            (100. *. Zipf.mass z 0);
          List.iter2
            (fun mode m ->
              Printf.bprintf b
                "   %-14s %8.3f ops/1000cyc  %8.2f words/10cyc  mean latency %6.0f\n"
                (Dht.mode_name mode) m.Cm_workload.Metrics.throughput
                m.Cm_workload.Metrics.bandwidth m.Cm_workload.Metrics.mean_latency)
            modes ms)
        skews
        (Plan.chunk (List.length modes) results);
      Report.note b
        "Skew concentrates point accesses on a few home processors; both mechanisms";
      Report.note b
        "pay the same two-message toll per isolated access, so the race is between";
      Report.note b
        "occupancy at the hot homes.  The adaptive policy should track the better";
      Report.note b "static choice as skew rises.")

let plan ?(quick = false) () = Plan.make ~jobs:(jobs ~quick) ~render:(render ~quick)
