(* Deliberately hazardous code: every identifier rule of bin/lint.ml
   fires on this file, and test/test_analysis.ml asserts the exact
   (line, rule) set; the _ok_* and _allowed* lines must report nothing. *)

let _bad_random () = Random.int 10

let _bad_time () = Sys.time ()

let _bad_unix () = Unix.gettimeofday ()

let _bad_table : (int, int) Hashtbl.t = Hashtbl.create ~random:true 16

let _bad_order t = Hashtbl.iter (fun _ v -> print_int v) t

let _bad_fold t = Hashtbl.fold (fun _ v acc -> v + acc) t 0

let _bad_compare cont = cont = fun () -> ()

let _bad_print () = Printf.printf "library code should not print\n"

let _bad_poly_sort xs = List.sort compare xs

let _bad_poly_qualified xs = List.sort Stdlib.compare xs

(* Applied compare is specialized by the compiler and must NOT fire. *)
let _ok_applied_compare a b = compare a b

let _bad_raw_send net deliver = Cm_machine.Network.send net ~src:0 ~dst:1 ~words:8 ~kind:"x" deliver

let _bad_raw_send_k net k deliver = Cm_machine.Network.send_k net ~src:0 ~dst:1 ~words:8 ~kind:k deliver

(* The fully-qualified path must not slip past the rule. *)
let _bad_raw_send_qualified net d = Cm_machine.Network.send net ~src:0 ~dst:1 ~words:8 ~kind:"x" d

let _allowed () = Hashtbl.iter (fun _ _ -> ()) (Hashtbl.create 1) (* lint: allow hashtbl-order *)

let _allowed_poly xs = List.sort compare xs (* lint: allow poly-compare *)

let _allowed_raw_send net d = Cm_machine.Network.send net ~src:0 ~dst:1 ~words:8 ~kind:"x" d (* lint: allow raw-send *)

(* Toplevel mutable state: every constructor form of global-state fires,
   including behind a type constraint and inside a nested module. *)
let _bad_global_counter = ref 0

let _bad_global_table : (int, string) Hashtbl.t = Hashtbl.create 16

let _bad_global_flag = Atomic.make false

module Bad_nested = struct
  let _bad_nested_state : int list ref = ref []
end

(* Function-local state is per-call and must NOT fire. *)
let _ok_local_state () = ref 0

let _allowed_global = Atomic.make 0 (* lint: allow global-state *)
