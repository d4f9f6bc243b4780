(** The remote-access schemes compared in the paper's evaluation.

    A scheme is a mechanism plus the optional hardware-support estimate
    ("w/HW": register-mapped network interface and hardware global-object
    identifier translation) and, for the B-tree, optional software root
    replication ("w/repl."). *)

type t =
  | Sm  (** cache-coherent shared memory (data migration) *)
  | Rpc of { hw : bool; repl : bool }
  | Cp of { hw : bool; repl : bool }  (** computation migration *)

val name : t -> string
(** The paper's row label, e.g. ["SM"], ["RPC w/HW"],
    ["CP w/repl. & HW"]. *)

val costs : t -> Cm_machine.Costs.t
(** Cost model for the scheme ([hardware] when [hw] is set). *)

val btree_mode : t -> Cm_apps.Btree.mode
(** The B-tree execution mode for the scheme. *)

val counting_mode : t -> Cm_apps.Counting_network.mode
(** The counting-network execution mode (replication is meaningless
    there — the paper notes balancers are write-shared). *)

val replicated : t -> bool
(** Whether the scheme replicates the B-tree root in software. *)

val of_string : string -> (t, string) result
(** Parse a CLI label like ["sm"], ["rpc"], ["cp+hw"], ["cp+repl+hw"]. *)
