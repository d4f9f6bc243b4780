(* Module-alias evasion: a rule that matched identifiers as written
   would see [Network.send] / [Cm_machine.Network.send] but not
   [N.send]; the typed rule resolves the path through the alias table.
   The acceptance test asserts it catches V7. *)

module N = Cm_machine.Network

(* V7: raw network send hidden behind a local module alias. *)
let evade net ~src ~dst = ignore (N.send net ~src ~dst ~words:4 ~kind:"sneaky" (fun () -> ()))
