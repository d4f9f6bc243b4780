open Cm_engine
open Cm_machine

type t = {
  now : int;
  utilizations : (int * float) list;
  traffic : (string * int * int) list;
  total_messages : int;
  total_words : int;
  cache_hits : int;
  cache_misses : int;
  counters : (string * int) list;
  transport : (string * int) list;
}

let traffic_prefix = "net.words."

let collect machine =
  let now = Machine.now machine in
  let utilizations =
    List.init (Machine.n_procs machine) (fun p ->
        (p, Processor.utilization (Machine.proc machine p) ~now))
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  in
  let stats = machine.Machine.stats in
  let counters = Stats.counters stats in
  let traffic =
    List.filter_map
      (fun (name, words) ->
        if String.length name > String.length traffic_prefix
           && String.sub name 0 (String.length traffic_prefix) = traffic_prefix
        then begin
          let kind =
            String.sub name (String.length traffic_prefix)
              (String.length name - String.length traffic_prefix)
          in
          Some (kind, Stats.get stats ("net.messages." ^ kind), words)
        end
        else None)
      counters
    |> List.sort (fun (_, _, a) (_, _, b) -> Int.compare b a)
  in
  let interesting (name, _) =
    let has_prefix p =
      String.length name >= String.length p && String.sub name 0 (String.length p) = p
    in
    (has_prefix "rt." || has_prefix "coh." || has_prefix "btree." || has_prefix "repl.")
  in
  {
    now;
    utilizations;
    traffic;
    total_messages = Network.total_messages machine.Machine.net;
    total_words = Network.total_words machine.Machine.net;
    cache_hits = Stats.get stats "cache.hits";
    cache_misses = Stats.get stats "cache.misses";
    counters = List.filter interesting counters;
    (* Delivery accounting lives in the transport's own registry (it is
       deliberately kept out of the machine stats and the run digests). *)
    transport = Stats.counters (Transport.stats (Machine.transport machine));
  }

let pp ppf t =
  Format.fprintf ppf "machine report at cycle %d@\n" t.now;
  Format.fprintf ppf "  hottest processors:@\n";
  List.iteri
    (fun i (p, u) ->
      if i < 6 then Format.fprintf ppf "    proc %-3d %5.1f%% busy@\n" p (100. *. u))
    t.utilizations;
  Format.fprintf ppf "  network: %d messages, %d words@\n" t.total_messages t.total_words;
  List.iter
    (fun (kind, msgs, words) ->
      Format.fprintf ppf "    %-16s %8d msgs %10d words@\n" kind msgs words)
    t.traffic;
  if t.cache_hits + t.cache_misses > 0 then
    Format.fprintf ppf "  caches: %d hits, %d misses (%.1f%% hit rate)@\n" t.cache_hits
      t.cache_misses
      (100. *. float_of_int t.cache_hits /. float_of_int (t.cache_hits + t.cache_misses));
  if t.counters <> [] then begin
    Format.fprintf ppf "  subsystem counters:@\n";
    List.iter (fun (name, v) -> Format.fprintf ppf "    %-28s %d@\n" name v) t.counters
  end;
  if t.transport <> [] then begin
    Format.fprintf ppf "  transport delivery:@\n";
    List.iter (fun (name, v) -> Format.fprintf ppf "    %-28s %d@\n" name v) t.transport
  end
