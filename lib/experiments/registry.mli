(** The experiment registry: every table and figure of the paper's
    evaluation, addressable by name for the CLI and the benchmark
    harness. *)

type entry = {
  id : string;  (** CLI name, e.g. ["fig2"], ["table1"] *)
  title : string;
  plan : ?quick:bool -> unit -> Plan.t;
      (** Build the experiment's plan: its jobs and its render (see
          {!Plan}). *)
}

val all : entry list
(** Every experiment, in paper order: fig1, fig2, fig3, table1-table5,
    fanout10, plus the design-choice ablations. *)

val find : string -> entry option
(** Look an experiment up by [id]. *)

val run : ?quick:bool -> ?pool:Cm_engine.Pool.t -> entry -> string * string list
(** [run ?quick ?pool entry] executes the entry's plan and returns its
    report and the digests of the machines it ran (see
    {!Plan.execute}); jobs fan out over [pool] when one is given, and
    both are byte-identical either way. *)
