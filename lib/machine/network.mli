(** The interconnection network.

    Messages are point-to-point, reliable, and delivered after a latency
    computed from the topology and the cost model ([base + per_hop * hops +
    per_word * (payload + header)]).  Delivery order between the same pair
    of endpoints is FIFO (latency is monotone in scheduling order for equal
    sizes; the simulator breaks ties by scheduling order).

    Every message's size (payload plus header words) is accumulated into
    counters, from which experiments derive the "words sent / 10 cycles"
    bandwidth figures of the paper's Figure 3 and Tables 2/4.  Counters are
    also kept per message kind so the harness can attribute traffic to
    coherence, RPC, migration, or replication. *)

open Cm_engine

type t

val create :
  ?contention:bool ->
  sim:Sim.t ->
  topo:Topology.t ->
  costs:Costs.t ->
  stats:Stats.t ->
  unit ->
  t
(** [create ~sim ~topo ~costs ~stats ()] is a network over [topo]
    recording into [stats].  With [contention] (default off — the cost
    model is calibrated without it), messages occupy every link of their
    dimension-ordered route for one cycle per wire word (links carry 1
    word/cycle), store-and-forward, and queue behind other messages
    sharing a link.  Queueing delay is accumulated under
    ["net.contended_cycles"]. *)

val send :
  t -> src:int -> dst:int -> words:int -> kind:string -> (unit -> unit) -> int
(** [send t ~src ~dst ~words ~kind deliver] injects a message of [words]
    payload words; [deliver] runs when it arrives at [dst], and the
    assigned wire latency (including any link queueing) is returned so
    protocol models can account for it.  [kind] is a short label used
    for traffic attribution (["rpc"], ["migrate"], ["coherence"], ...).
    Self-sends ([src = dst]) are allowed and modelled as a 0-hop message
    (loopback still pays the base latency). *)

(** {1 Interned kinds}

    [send] interns its [kind] label on every call (one small hashtable
    lookup).  Subsystems on the per-message hot path — the coherence
    protocol sends several messages per miss — resolve the kind once at
    construction time and use {!send_k} instead, making traffic
    attribution two bare counter updates. *)

type kind
(** An interned message kind: the label plus its pre-resolved
    ["net.words.<kind>"] / ["net.messages.<kind>"] counters. *)

val kind : t -> string -> kind
(** [kind t name] interns [name] (idempotent).  The per-kind counters
    are listed only once a message of the kind is sent, so interning a
    kind that is never sent leaves the statistics untouched. *)

val send_k :
  t -> src:int -> dst:int -> words:int -> kind:kind -> (unit -> unit) -> int
(** [send_k] is {!send} with a pre-interned kind. *)

val post_k :
  t -> src:int -> dst:int -> words:int -> kind:kind -> hid:Sim.hid -> arg:int -> int
(** [post_k] is {!send_k} with the delivery routed through a handler
    pre-registered with the simulator ({!Sim.handler}) instead of a
    closure: accounting and latency are identical, but the send allocates
    nothing — the event record is pooled and the handler receives [arg]
    (conventionally the destination processor).  The zero-allocation path
    for per-message hot senders such as the coherence controllers. *)

val total_words : t -> int
(** [total_words t] is the number of words (payload + headers) injected so
    far. *)

val total_messages : t -> int
(** [total_messages t] is the number of messages injected so far. *)

val words_of_kind : t -> string -> int
(** [words_of_kind t kind] is the traffic attributed to [kind]. *)

val messages_of_kind : t -> string -> int
(** [messages_of_kind t kind] is the message count attributed to [kind]. *)
