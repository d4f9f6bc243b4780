(* A lint finding, shared by every pass and by the dead-export check.

   [context] is the enclosing toplevel binding ("Cm_machine.Transport.post")
   or "" when the finding is not inside one; [detail] is a pass-specific
   classification (the domain-safety ownership class, the hot-alloc
   allocation kind); [witness] is a call/reachability chain of canonical
   value paths justifying the finding interprocedurally. *)

type t = {
  file : string;
  line : int;
  rule : string;
  msg : string;
  context : string;
  detail : string;
  witness : string list;
}

let v ?(context = "") ?(detail = "") ?(witness = []) ~file ~line ~rule msg =
  { file; line; rule; msg; context; detail; witness }

(* Satellite: stable output order — (file, line, rule), then the full
   message so equal-keyed findings are still deterministic. *)
let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> (
      match String.compare a.rule b.rule with
      | 0 -> String.compare a.msg b.msg
      | c -> c)
    | c -> c)
  | c -> c

let sort findings = List.sort_uniq compare findings

let to_string f = Printf.sprintf "%s:%d: %s: %s" f.file f.line f.rule f.msg

(* ------------------------------------------------------------------ *)
(* JSON (hand-rolled: the lint links only compiler-libs)              *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json f =
  let str s = "\"" ^ json_escape s ^ "\"" in
  Printf.sprintf
    "{\"rule\":%s,\"file\":%s,\"line\":%d,\"context\":%s,\"class\":%s,\"witness\":[%s],\"msg\":%s}"
    (str f.rule) (str f.file) f.line (str f.context) (str f.detail)
    (String.concat "," (List.map str f.witness))
    (str f.msg)

let list_to_json findings =
  "[\n  " ^ String.concat ",\n  " (List.map to_json findings) ^ "\n]\n"
