(** A per-processor hardware cache.

    Direct-mapped, with a configurable number of line-sized slots (the
    experiments use the paper's Alewife-like geometry: 64 KB of 16-byte
    lines, i.e. 4096 slots of 4 words).  Each resident line carries a
    coherence state — [Shared] (clean, readable) or [Modified] (exclusive,
    writable) — and a copy of the line's words.

    The cache is a passive structure: the coherence protocol in
    {!Shmem} drives all state changes.  Hit/miss counters accumulate into
    the owning machine's statistics under ["cache.*"]. *)

type state = Shared | Modified

type t

val create : n_slots:int -> stats:Cm_engine.Stats.t -> t
(** [create ~n_slots ~stats] is an empty cache.  The line size lives in
    {!Shmem.config}, which validates it. *)

val lookup : t -> line:int -> (state * int array) option
(** [lookup t ~line] is the state and data of [line] if resident (the
    returned array is the live copy — the protocol mutates it in place). *)

val state : t -> line:int -> state option
(** [state t ~line] is the coherence state of [line] if resident. *)

type evicted = { line : int; was_modified : bool; data : int array }
(** Description of a line displaced by {!insert}.  [data] is only
    meaningful when [was_modified] — a clean victim's array may be
    reused as the incoming line's storage. *)

val insert : t -> line:int -> state:state -> data:int array -> evicted option
(** [insert t ~line ~state ~data] makes [line] resident with a private
    copy of [data].  If the slot held a different line, that line is
    evicted and returned (the protocol must write back modified victims).
    Inserting a line already resident updates its state and data in
    place. *)

val set_state : t -> line:int -> state -> unit
(** [set_state t ~line s] changes the state of a resident line.  Raises
    [Invalid_argument] if [line] is not resident. *)

val invalidate : t -> line:int -> int array option
(** [invalidate t ~line] removes [line]; returns its data if it was
    resident in [Modified] state (the caller propagates the dirty data),
    [None] otherwise. *)

val record_hit : t -> unit
(** Count one hit (under ["cache.hits"]). *)

val record_miss : t -> unit
(** Count one miss (under ["cache.misses"]). *)
