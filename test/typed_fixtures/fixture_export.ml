(* Dead-export fixture: [unused] is called here, but a self-reference
   does not make an export live. *)

let unused x = x + 1
let used x = unused x

module Infix = struct
  let ( let+ ) x f = f x
end
