(* One cell per name, created by the first lookup through either API and
   shared by every later one: a handle is the cell itself.  [written]
   keeps the listing — and so every run digest — to the names actually
   written, as if cells were made on first write: a name resolved at
   construction but never written stays out, one written with 0 is in. *)
type counter = { name : string; mutable value : int; mutable written : bool }

type t = (string, counter) Hashtbl.t

let create () : t = Hashtbl.create 64

let counter t name =
  match Hashtbl.find t name with
  | c -> c
  | exception Not_found ->
    let c = { name; value = 0; written = false } in
    Hashtbl.add t name c;
    c

(* The handle updates, under names of their own so cm-lint's hot set
   can hold them allocation-free without also naming the string API. *)
let[@inline] counter_add c n =
  c.value <- c.value + n;
  c.written <- true

let[@inline] counter_incr c = counter_add c 1

let incr t name = counter_incr (counter t name)

let add t name n = counter_add (counter t name) n

let get t name = match Hashtbl.find t name with c -> c.value | exception Not_found -> 0

module Counter = struct
  let add = counter_add

  let incr = counter_incr

  let get c = c.value

  let name c = c.name
end

(* The fold feeds a name sort, so the unspecified hashtable order never
   reaches callers — reports stay byte-stable across runs. *)
let counters t =
  Hashtbl.fold (* lint: allow hashtbl-order *)
    (fun name c acc -> if c.written then (name, c.value) :: acc else acc)
    t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
