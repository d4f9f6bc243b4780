(** Formatting of experiment reports: measured values next to the
    paper's published values so shape agreement is visible at a glance.
    Every function appends to a [Buffer.t]; a render returns the
    buffer's contents and never prints. *)

type row = {
  label : string;
  paper : float option;  (** the published value, when the paper gives one *)
  measured : float;
}

val text : (Buffer.t -> unit) -> string
(** [text f] is what [f] appends to a fresh buffer. *)

val header : Buffer.t -> string -> unit
(** Banner with the experiment's title. *)

val table : Buffer.t -> metric:string -> row list -> unit
(** Aligned table: label, paper value (or [-]), measured value, and the
    measured/paper ratio when both exist. *)

val series :
  Buffer.t -> x_label:string -> metric:string -> xs:int list -> (string * float list) list -> unit
(** A figure as a text table: one column per x value, one line per
    curve. *)

val note : Buffer.t -> string -> unit
(** Free-form commentary line. *)
