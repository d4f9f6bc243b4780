(* lint: allow-file domain-safety — test fixture: whole-file suppression *)

(* Both roots below are covered by the file-wide allow above: the
   domain-safety pass must report nothing in this file. *)

let file_wide_a = ref 0

let file_wide_b : (int, int) Hashtbl.t = Hashtbl.create 4

(* The allow-file names only domain-safety: this atomic root is still
   reported under global-state. *)
let file_wide_flag = Atomic.make false

let read_both () = !file_wide_a + Hashtbl.length file_wide_b
