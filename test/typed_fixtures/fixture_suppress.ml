(* Suppression-machinery fixtures: one vetted root per escape hatch,
   plus the misuses the audit must turn into bad-suppress findings. *)

(* on-line comment suppression *)
let on_line = ref 0 (* lint: allow domain-safety — test fixture: on-line suppression *)

(* line-above comment suppression *)
(* lint: allow domain-safety — test fixture: line-above suppression *)
let line_above : (int, int) Hashtbl.t = Hashtbl.create 4

(* comment above the creation inside a binding's body *)
let body_vetted =
  (* lint: allow domain-safety — test fixture: write-once table built at module load *)
  let t = Array.make 4 0 in
  t.(1) <- 1;
  t

(* B1: suppression naming a rule the analyzer does not know — must be
   reported as bad-suppress/unknown-rule, not silently ignored. *)
(* lint: allow no-such-rule — typo'd rule name *)
let unrelated = 1

(* B2: a justified rule suppressed with no justification — the comment
   does not suppress and is itself a bad-suppress finding, so the ref
   below must ALSO still be reported as escaping. *)
(* lint: allow domain-safety *)
let no_why = ref 0

let read_all () = !on_line + Hashtbl.length line_above + body_vetted.(1) + unrelated + !no_why
