(* Dead-export fixture: the other unit, naming [Fixture_export.used]
   directly and its binding operator only through a letop. *)

open Fixture_export.Infix

let twice x =
  let+ y = Fixture_export.used x in
  y * 2
