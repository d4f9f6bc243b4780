open Cm_core

type mode = Messaging of Prelude.access | Shared_memory

type t = Msg of Btree_msg.t | Sm of Btree_sm.t

let create env ~mode ~fanout ?(fill = 0.7) ?(replicate_root = false) ?sm_read_mode
    ?(placement_seed = 1789) ~node_procs ~keys () =
  let plan = Btree_node.build_plan ~keys ~fanout ~fill in
  match mode with
  | Messaging access ->
    Msg (Btree_msg.create env ~access ~fanout ~replicate_root ~plan ~node_procs ~placement_seed)
  | Shared_memory ->
    if replicate_root then
      invalid_arg "Btree.create: replicate_root applies to messaging modes only";
    Sm (Btree_sm.create env ?read_mode:sm_read_mode ~fanout ~plan ~node_procs ~placement_seed ())

let lookup t key = match t with Msg b -> Btree_msg.lookup b key | Sm b -> Btree_sm.lookup b key

let insert t key = match t with Msg b -> Btree_msg.insert b key | Sm b -> Btree_sm.insert b key

let height t = match t with Msg b -> Btree_msg.height b | Sm b -> Btree_sm.height b

let splits t = match t with Msg b -> Btree_msg.splits b | Sm b -> Btree_sm.splits b

let root_home t =
  match t with Msg b -> Btree_msg.root_home b | Sm b -> Btree_sm.root_home b

let all_keys t = match t with Msg b -> Btree_msg.all_keys b | Sm b -> Btree_sm.all_keys b

let check_invariants t =
  match t with Msg b -> Btree_msg.check_invariants b | Sm b -> Btree_sm.check_invariants b
