(* The pre-PR-8 assoc-list DHT bucket representation (messaging mode
   only), kept as the boxed side of test_flatstore's digest cross-check.
   Costs are computed exactly as the flat [Cm_apps.Dht] computes them —
   [bucket_work] over the entry count, charged before any mutation — so
   a paired run produces the same machine digest while allocating the
   way the old representation allocated: a list cell and pair per
   insert, and an O(n) list rebuild per update ([remove_assoc] +
   re-cons), where the flat buckets write two words in place. *)

open Cm_machine
open Cm_runtime
open Cm_core
open Thread.Infix

let bucket_work n = 40 + (6 * n)

type bucket = { mutable entries : (int * int) list }

type t = {
  prelude : Prelude.t;
  rt : Runtime.t;
  access : Prelude.access;
  buckets : int;
  capacity : int;
  objs : bucket Prelude.obj array;
}

let create prelude ?(buckets = 64) ?(bucket_capacity = 64) ~access ~node_procs () =
  if buckets <= 0 then invalid_arg "Dht_boxed.create: buckets must be positive";
  if Array.length node_procs = 0 then invalid_arg "Dht_boxed.create: no node processors";
  let home i = node_procs.(i mod Array.length node_procs) in
  {
    prelude;
    rt = Prelude.runtime prelude;
    access;
    buckets;
    capacity = bucket_capacity;
    objs =
      Array.init buckets (fun i -> Prelude.make_obj prelude ~home:(home i) { entries = [] });
  }

let bucket_of_key t key = abs (key * 2654435761) mod t.buckets

let method_get key (b : bucket) =
  let* () = Thread.compute (bucket_work (List.length b.entries)) in
  Thread.return (List.assoc_opt key b.entries)

let method_put t key value (b : bucket) =
  let* () = Thread.compute (bucket_work (List.length b.entries)) in
  if List.mem_assoc key b.entries then begin
    b.entries <- (key, value) :: List.remove_assoc key b.entries;
    Thread.return ()
  end
  else if List.length b.entries >= t.capacity then failwith "Dht_boxed.put: bucket full"
  else begin
    b.entries <- (key, value) :: b.entries;
    Thread.return ()
  end

let call t i body =
  Runtime.scope t.rt ~result_words:2
    (Runtime.call t.rt ~access:t.access
       ~home:(Prelude.obj_home t.prelude t.objs.(i))
       ~args_words:8 ~result_words:2
       (body (Prelude.obj_state t.prelude t.objs.(i))))

let get t key = call t (bucket_of_key t key) (method_get key)

let put t ~key ~value = call t (bucket_of_key t key) (method_put t key value)

(* Direct (not simulated) insert, mirroring [Dht.preload]. *)
let preload t ~key ~value =
  let b = Prelude.obj_state t.prelude t.objs.(bucket_of_key t key) in
  if List.mem_assoc key b.entries then
    b.entries <- (key, value) :: List.remove_assoc key b.entries
  else if List.length b.entries >= t.capacity then failwith "Dht_boxed.preload: bucket full"
  else b.entries <- (key, value) :: b.entries

(* Direct (not simulated) lookup, mirroring [Dht.peek]. *)
let peek t key =
  List.assoc_opt key (Prelude.obj_state t.prelude t.objs.(bucket_of_key t key)).entries

let size t =
  Array.fold_left
    (fun acc o -> acc + List.length (Prelude.obj_state t.prelude o).entries)
    0 t.objs
