(* Dead-export fixture: an interface with one value another unit uses
   ([used]), one that only this unit's own body calls ([unused]), and a
   binding operator used only through [let+] ([Infix.( let+ )]). *)

val used : int -> int
val unused : int -> int

module Infix : sig
  val ( let+ ) : int -> (int -> int) -> int
end
