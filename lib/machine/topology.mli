(** Interconnect topologies.

    A topology maps processor-id pairs to hop counts, used by the network
    to compute wire latency.  Processors are numbered [0 .. size-1]; mesh
    and torus shapes place them in row-major order on the smallest
    near-square grid that fits. *)

type t

val mesh : int -> t
(** [mesh n] is a 2-D mesh of [n] processors with dimension-ordered
    (Manhattan-distance) routing. *)

val torus : int -> t
(** [torus n] is a 2-D torus of [n] processors (wrap-around links). *)

val crossbar : int -> t
(** [crossbar n] connects every pair of distinct processors in one hop. *)

val size : t -> int
(** [size t] is the number of processors. *)

val hops : t -> src:int -> dst:int -> int
(** [hops t ~src ~dst] is the number of network hops between [src] and
    [dst]; 0 when they are equal.  Constant time and allocation-free
    (each processor's grid coordinates are precomputed, 2N words).
    Raises [Invalid_argument] on an id out of range. *)

val route : t -> src:int -> dst:int -> (int * int) list
(** [route t ~src ~dst] is the ordered list of directed links a message
    crosses under dimension-ordered (X-then-Y) routing; empty when
    [src = dst].  A crossbar has a single direct link per pair. *)
