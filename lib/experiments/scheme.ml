open Cm_machine

type t = Sm | Rpc of { hw : bool; repl : bool } | Cp of { hw : bool; repl : bool }

let name = function
  | Sm -> "SM"
  | Rpc { hw = false; repl = false } -> "RPC"
  | Rpc { hw = true; repl = false } -> "RPC w/HW"
  | Rpc { hw = false; repl = true } -> "RPC w/repl."
  | Rpc { hw = true; repl = true } -> "RPC w/repl. & HW"
  | Cp { hw = false; repl = false } -> "CP"
  | Cp { hw = true; repl = false } -> "CP w/HW"
  | Cp { hw = false; repl = true } -> "CP w/repl."
  | Cp { hw = true; repl = true } -> "CP w/repl. & HW"

let costs = function
  | Sm -> Costs.software
  | Rpc { hw; _ } | Cp { hw; _ } -> if hw then Costs.hardware else Costs.software

let btree_mode = function
  | Sm -> Cm_apps.Btree.Shared_memory
  | Rpc _ -> Cm_apps.Btree.Messaging Cm_core.Prelude.Rpc
  | Cp _ -> Cm_apps.Btree.Messaging Cm_core.Prelude.Migrate

let counting_mode = function
  | Sm -> Cm_apps.Counting_network.Shared_memory
  | Rpc _ -> Cm_apps.Counting_network.Messaging Cm_core.Prelude.Rpc
  | Cp _ -> Cm_apps.Counting_network.Messaging Cm_core.Prelude.Migrate

let replicated = function Sm -> false | Rpc { repl; _ } | Cp { repl; _ } -> repl

let of_string s =
  match String.lowercase_ascii s with
  | "sm" -> Ok Sm
  | "rpc" -> Ok (Rpc { hw = false; repl = false })
  | "rpc+hw" -> Ok (Rpc { hw = true; repl = false })
  | "rpc+repl" -> Ok (Rpc { hw = false; repl = true })
  | "rpc+repl+hw" | "rpc+hw+repl" -> Ok (Rpc { hw = true; repl = true })
  | "cp" -> Ok (Cp { hw = false; repl = false })
  | "cp+hw" -> Ok (Cp { hw = true; repl = false })
  | "cp+repl" -> Ok (Cp { hw = false; repl = true })
  | "cp+repl+hw" | "cp+hw+repl" -> Ok (Cp { hw = true; repl = true })
  | other -> Error (Printf.sprintf "unknown scheme %S" other)
