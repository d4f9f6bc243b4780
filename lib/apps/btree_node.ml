(* [key]/[keys] are annotated so the comparisons below compile to direct
   int compares, not the polymorphic [compare_val] runtime — this search
   runs once per probe of every simulated descent. *)
let find_child_index ~keys ~nkeys ~key:(key : int) =
  if nkeys = 0 || key > keys.(nkeys - 1) then
    invalid_arg "Btree_node.find_child_index: key above high key";
  (* Smallest i with key <= keys.(i). *)
  let lo = ref 0 and hi = ref (nkeys - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if key <= keys.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let probes ~nkeys =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n / 2) in
  go 1 (max 1 nkeys)

let insertion_point ~keys ~nkeys ~key:(key : int) =
  let lo = ref 0 and hi = ref nkeys in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) >= key then hi := mid else lo := mid + 1
  done;
  !lo

let member ~keys ~nkeys ~key =
  let i = insertion_point ~keys ~nkeys ~key in
  i < nkeys && keys.(i) = key

let insert_at ~keys ~nkeys ~pos v =
  if pos < 0 || pos > nkeys || nkeys >= Array.length keys then
    invalid_arg "Btree_node.insert_at: bad position";
  Array.blit keys pos keys (pos + 1) (nkeys - pos);
  keys.(pos) <- v

let split_point ~nkeys = (nkeys + 1) / 2

(* ------------------------------------------------------------------ *)
(* Bulk loading                                                       *)
(* ------------------------------------------------------------------ *)

type plan =
  | Leaf of { keys : int array; high : int }
  | Node of { keys : int array; high : int; children : plan array }

let plan_high = function Leaf { high; _ } -> high | Node { high; _ } -> high

let chunk ~size items =
  let rec go acc current n = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | x :: rest ->
      if n = size then go (List.rev current :: acc) [ x ] 1 rest
      else go acc (x :: current) (n + 1) rest
  in
  go [] [] 0 items

let build_plan ~keys ~fanout ~fill =
  if fanout < 4 then invalid_arg "Btree_node.build_plan: fanout must be >= 4";
  let keys = List.sort_uniq Int.compare keys in
  if keys = [] then invalid_arg "Btree_node.build_plan: no keys";
  (* Written so that nan fails too: [int_of_float] and the clamp below
     would turn nan and negative fills into 2-key nodes. *)
  if not (fill > 0. && fill <= 1.) then
    invalid_arg "Btree_node.build_plan: fill must be in (0, 1]";
  let target = max 2 (min fanout (int_of_float (fill *. float_of_int fanout +. 0.5))) in
  let leaves =
    List.map
      (fun ks ->
        let arr = Array.of_list ks in
        Leaf { keys = arr; high = arr.(Array.length arr - 1) })
      (chunk ~size:target keys)
  in
  (* The rightmost node of every level routes everything above it. *)
  let rec raise_level nodes =
    match nodes with
    | [] -> assert false
    | [ only ] -> only
    | _ ->
      let groups = chunk ~size:target nodes in
      let parents =
        List.map
          (fun children ->
            let children = Array.of_list children in
            let keys = Array.map plan_high children in
            Node { keys; high = keys.(Array.length keys - 1); children })
          groups
      in
      raise_level parents
  in
  let mark_rightmost plan =
    (* Walk the right spine, setting high keys (and the internal
       separator for the last child) to max_int. *)
    let rec go = function
      | Leaf { keys; _ } -> Leaf { keys; high = max_int }
      | Node { keys; children; _ } ->
        let keys = Array.copy keys and children = Array.copy children in
        let last = Array.length children - 1 in
        children.(last) <- go children.(last);
        keys.(last) <- max_int;
        Node { keys; high = max_int; children }
    in
    go plan
  in
  mark_rightmost (raise_level leaves)

let rec plan_height = function
  | Leaf _ -> 1
  | Node { children; _ } -> 1 + plan_height children.(0)

let plan_nodes_at_level plan level =
  let rec collect node l acc =
    if l = 0 then node :: acc
    else
      match node with
      | Leaf _ -> acc
      | Node { children; _ } -> Array.fold_right (fun c acc -> collect c (l - 1) acc) children acc
  in
  collect plan (plan_height plan - 1 - level) []

let rec plan_keys = function
  | Leaf { keys; _ } -> Array.to_list keys
  | Node { children; _ } -> List.concat_map plan_keys (Array.to_list children)

let plan_root_children = function Leaf _ -> 0 | Node { children; _ } -> Array.length children

(* ------------------------------------------------------------------ *)
(* Inspection                                                         *)
(* ------------------------------------------------------------------ *)

type view = {
  is_leaf : bool;
  nkeys : int;
  high : int;
  right : int;
  keys : int array;
  children : int array;
}

let leaf_keys ~root view =
  let rec leftmost id =
    let n = view id in
    if n.is_leaf then id else leftmost n.children.(0)
  in
  let rec walk id acc =
    let n = view id in
    let acc = List.rev_append (List.init n.nkeys (fun i -> n.keys.(i))) acc in
    if n.right >= 0 then walk n.right acc else List.rev acc
  in
  walk (leftmost root) []

let check ~fanout ~root view =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec check_node id ~low ~high_bound =
    let n = view id in
    let rec sorted i =
      if i >= n.nkeys - 1 then true else n.keys.(i) < n.keys.(i + 1) && sorted (i + 1)
    in
    if n.nkeys = 0 then fail "node %d empty" id
    else if not (sorted 0) then fail "node %d keys not sorted" id
    else if n.high <> high_bound then fail "node %d high %d <> bound %d" id n.high high_bound
    else if n.nkeys > fanout then fail "node %d overfull" id
    else if n.keys.(0) <= low then fail "node %d key %d below low bound %d" id n.keys.(0) low
    else if n.is_leaf then Ok ()
    else if n.keys.(n.nkeys - 1) <> n.high then
      fail "internal %d last key %d <> high %d" id n.keys.(n.nkeys - 1) n.high
    else begin
      let rec children i low =
        if i >= n.nkeys then Ok ()
        else
          match check_node n.children.(i) ~low ~high_bound:n.keys.(i) with
          | Error _ as e -> e
          | Ok () ->
            (* Consecutive children must be linked. *)
            if i + 1 < n.nkeys && (view n.children.(i)).right <> n.children.(i + 1) then
              fail "node %d: child %d not linked to next sibling" id n.children.(i)
            else children (i + 1) n.keys.(i)
      in
      children 0 low
    end
  in
  match check_node root ~low:min_int ~high_bound:max_int with
  | Error _ as e -> e
  | Ok () ->
    (* The leaf chain must enumerate keys in ascending order. *)
    let rec ascending = function
      | a :: (b :: _ as rest) -> if a < b then ascending rest else fail "leaf chain unsorted"
      | [ _ ] | [] -> Ok ()
    in
    ascending (leaf_keys ~root view)
