open Cm_engine

(* An interned message kind: the per-kind traffic counters resolved
   once, so a send does not rebuild "net.words.<kind>" strings or hash
   them per message. *)
type kind = {
  k_words : Stats.counter;
  k_messages : Stats.counter;
}

type t = {
  sim : Sim.t;
  topo : Topology.t;
  size : int;
  costs : Costs.t;
  stats : Stats.t;
  contention : bool;
  links : int array;  (* directed link src*size+dst -> free-at time; empty unless contention *)
  kinds : (string, kind) Hashtbl.t;
  words_c : Stats.counter;
  messages_c : Stats.counter;
  contended_c : Stats.counter;
}

let create ?(contention = false) ~sim ~topo ~costs ~stats () =
  let size = Topology.size topo in
  {
    sim;
    topo;
    size;
    costs;
    stats;
    contention;
    (* Links are dense by construction (both endpoints < size), so the
       free-at times live in a flat array — no tuple key allocation or
       polymorphic hashing per routed hop.  Only the contention model
       reads them, so the array is elided otherwise. *)
    links = (if contention then Array.make (size * size) 0 else [||]);
    kinds = Hashtbl.create 16;
    words_c = Stats.counter stats "net.words";
    messages_c = Stats.counter stats "net.messages";
    contended_c = Stats.counter stats "net.contended_cycles";
  }

let kind t name =
  match Hashtbl.find_opt t.kinds name with
  | Some k -> k
  | None ->
    let k =
      {
        k_words = Stats.counter t.stats ("net.words." ^ name);
        k_messages = Stats.counter t.stats ("net.messages." ^ name);
      }
    in
    Hashtbl.add t.kinds name k;
    k


(* Store-and-forward over the message's route: each link carries one
   word per cycle, so it is occupied for [wire_words] cycles, and
   messages sharing a link queue behind one another. *)
let contended_latency t ~src ~dst ~wire_words =
  let now = Sim.now t.sim in
  let cursor = ref (now + t.costs.Costs.net_base) in
  List.iter
    (fun (a, b) ->
      let link = (a * t.size) + b in
      let start = max !cursor t.links.(link) in
      t.links.(link) <- start + wire_words;
      cursor := start + wire_words + t.costs.Costs.net_per_hop)
    (Topology.route t.topo ~src ~dst);
  if !cursor - now > 0 then begin
    Stats.Counter.add t.contended_c (!cursor - now);
    !cursor - now
  end
  else 1

(* Latency assignment plus all traffic accounting for one message —
   everything a send does except scheduling the delivery, shared by the
   closure ({!send_k}) and pooled-handler ({!post_k}) entry points.  The
   uncontended latency is computed per message from the topology's
   per-processor coordinates (a few loads, no allocation), so the network
   holds no per-pair state unless the contention model is on. *)
let accounted_latency t ~src ~dst ~words ~kind =
  if words < 0 then invalid_arg "Network.send: negative size";
  let wire_words = words + t.costs.Costs.header_words in
  let latency =
    if t.contention then contended_latency t ~src ~dst ~wire_words
    else Costs.transit t.costs ~hops:(Topology.hops t.topo ~src ~dst) ~words
  in
  Stats.Counter.add t.words_c wire_words;
  Stats.Counter.incr t.messages_c;
  Stats.Counter.add kind.k_words wire_words;
  Stats.Counter.incr kind.k_messages;
  latency

let send_k t ~src ~dst ~words ~kind deliver =
  let latency = accounted_latency t ~src ~dst ~words ~kind in
  Sim.after t.sim latency deliver;
  latency

let post_k t ~src ~dst ~words ~kind ~hid ~arg =
  let latency = accounted_latency t ~src ~dst ~words ~kind in
  Sim.post_after t.sim ~delay:latency hid arg;
  latency

let send t ~src ~dst ~words ~kind:name deliver = send_k t ~src ~dst ~words ~kind:(kind t name) deliver

(* The totals are the interned counters — the per-message path updates
   exactly one tally per figure. *)
let total_words t = Stats.Counter.get t.words_c

let total_messages t = Stats.Counter.get t.messages_c

(* Per-kind queries go through the interned kind record: no string
   rebuild or registry hash per call, and a never-sent kind reads 0. *)
let words_of_kind t name = Stats.Counter.get (kind t name).k_words

let messages_of_kind t name = Stats.Counter.get (kind t name).k_messages
