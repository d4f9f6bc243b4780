open Cm_machine
open Cm_memory
open Cm_runtime
open Cm_core
open Thread.Infix

type mode = Messaging of Prelude.access | Adaptive | Shared_memory

let mode_name = function
  | Messaging Prelude.Rpc -> "rpc"
  | Messaging Prelude.Migrate -> "migrate"
  | Adaptive -> "adaptive"
  | Shared_memory -> "shared_memory"

(* CPU cost of searching/updating a bucket of [n] entries. *)
let bucket_work n = 40 + (6 * n)

(* Bucket layout, shared by every representation: word 0 = entry count,
   then (key, value) pairs.  The messaging/adaptive reprs hold it as one
   flat int array per bucket (a single unboxed block, preallocated at
   capacity — steady-state puts allocate nothing); the shared-memory
   repr holds the same layout in simulated coherent memory. *)
let off_count = 0

let off_pairs = 1

type bucket = int array

type repr =
  | Msg of {
      rt : Runtime.t;
      objs : bucket Prelude.obj array;
      (* The method-site table (one [Runtime.msite] per method): the
         steady-state get/put path over these is allocation-free. *)
      get_ms : int option Runtime.msite;
      put_ms : unit Runtime.msite;
      sum_ms : int Runtime.msite;
    }
  | Adapt of {
      ad : Adaptive.t;
      objs : bucket Prelude.obj array;
      get_site : Adaptive.site;
      put_site : Adaptive.site;
      scan_site : Adaptive.site;
    }
  | Sm of { mem : Shmem.t; bases : Shmem.addr array; locks : Lock.t array; capacity : int }

type t = { env : Sysenv.t; buckets : int; capacity : int; repr : repr }

let n_buckets t = t.buckets

let bucket_of_key t key = abs (key * 2654435761) mod t.buckets

(* ------------------------------------------------------------------ *)
(* Flat-bucket primitives                                             *)
(* ------------------------------------------------------------------ *)

let bkt_count (b : bucket) = b.(off_count)

(* Slot index of [key], or -1.  The scan recursion lives at top level:
   an inner [let rec] would close over [b]/[key]/[n] and allocate ~6
   minor words per lookup — on the path every get/put/preload takes. *)
let rec bkt_find_from (b : bucket) key n s =
  if s >= n then -1
  else if b.(off_pairs + (2 * s)) = key then s
  else bkt_find_from b key n (s + 1)

let bkt_find (b : bucket) key = bkt_find_from b key b.(off_count) 0

let bkt_set (b : bucket) s value = b.(off_pairs + (2 * s) + 1) <- value

let bkt_append (b : bucket) key value =
  let n = b.(off_count) in
  b.(off_pairs + (2 * n)) <- key;
  b.(off_pairs + (2 * n) + 1) <- value;
  b.(off_count) <- n + 1

(* ------------------------------------------------------------------ *)
(* Messaging bodies (run at the bucket's home)                        *)
(* ------------------------------------------------------------------ *)

let method_get key (b : bucket) =
  let* () = Thread.compute (bucket_work (bkt_count b)) in
  match bkt_find b key with
  | -1 -> Thread.return None
  | s -> Thread.return (Some b.(off_pairs + (2 * s) + 1))

let method_put capacity key value (b : bucket) =
  let* () = Thread.compute (bucket_work (bkt_count b)) in
  match bkt_find b key with
  | -1 ->
    if bkt_count b >= capacity then failwith "Dht.put: bucket full"
    else begin
      bkt_append b key value;
      Thread.return ()
    end
  | s ->
    bkt_set b s value;
    Thread.return ()

let method_sum (b : bucket) =
  let* () = Thread.compute (bucket_work (bkt_count b)) in
  let n = bkt_count b in
  let acc = ref 0 in
  for s = 0 to n - 1 do
    acc := !acc + b.(off_pairs + (2 * s) + 1)
  done;
  Thread.return !acc

(* ------------------------------------------------------------------ *)
(* Fused method-site bodies                                           *)
(* ------------------------------------------------------------------ *)

(* The frame twins of the messaging bodies above: same bucket reads,
   same [bucket_work] charge at the same point, expressed as static
   steps over the method-site registers so a steady-state get/put
   allocates nothing (the [Some value] of a successful get aside).
   The per-site step closures below are built once per table. *)

let ms_bucket space c : bucket =
  Obj.obj (Objspace.state space (Objspace.id_of_int (Runtime.msite_obj c)))

let get_frame_body space =
  let done_ c =
    let b = ms_bucket space c in
    match bkt_find b (Runtime.msite_arg_a c) with
    | -1 -> Runtime.msite_finish c None
    | s -> Runtime.msite_finish c (Some b.(off_pairs + (2 * s) + 1))
  in
  fun c ->
    let b = ms_bucket space c in
    Thread.Frame.hold_then c (bucket_work (bkt_count b)) done_

let put_frame_body space capacity =
  let done_ c =
    let b = ms_bucket space c in
    let key = Runtime.msite_arg_a c in
    (match bkt_find b key with
    | -1 ->
      if bkt_count b >= capacity then failwith "Dht.put: bucket full"
      else bkt_append b key (Runtime.msite_arg_b c)
    | s -> bkt_set b s (Runtime.msite_arg_b c));
    Runtime.msite_finish c ()
  in
  fun c ->
    let b = ms_bucket space c in
    Thread.Frame.hold_then c (bucket_work (bkt_count b)) done_

let sum_frame_body space =
  let done_ c =
    let b = ms_bucket space c in
    let n = bkt_count b in
    let acc = ref 0 in
    for s = 0 to n - 1 do
      acc := !acc + b.(off_pairs + (2 * s) + 1)
    done;
    Runtime.msite_finish c !acc
  in
  fun c ->
    let b = ms_bucket space c in
    Thread.Frame.hold_then c (bucket_work (bkt_count b)) done_

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

let create env ?(buckets = 64) ?(bucket_capacity = 64) ~mode ~node_procs () =
  if buckets <= 0 then invalid_arg "Dht.create: buckets must be positive";
  if Array.length node_procs = 0 then invalid_arg "Dht.create: no node processors";
  let home i = node_procs.(i mod Array.length node_procs) in
  let fresh_bucket () = Array.make (off_pairs + (2 * bucket_capacity)) 0 in
  let repr =
    match mode with
    | Messaging access ->
      let p = env.Sysenv.prelude in
      let rt = Sysenv.runtime env in
      let objs =
        Array.init buckets (fun i -> Prelude.make_obj p ~home:(home i) (fresh_bucket ()))
      in
      let space = Prelude.space p in
      let state obj : bucket = Obj.obj (Objspace.state space (Objspace.id_of_int obj)) in
      Msg
        {
          rt;
          objs;
          get_ms =
            Runtime.msite rt ~access ~space ~args_words:8 ~result_words:2
              ~frame_body:(get_frame_body space)
              ~cps_body:(fun ~obj ~a ~b:_ -> method_get a (state obj));
          put_ms =
            Runtime.msite rt ~access ~space ~args_words:8 ~result_words:2
              ~frame_body:(put_frame_body space bucket_capacity)
              ~cps_body:(fun ~obj ~a ~b -> method_put bucket_capacity a b (state obj));
          sum_ms =
            Runtime.msite rt ~access ~space ~args_words:8 ~result_words:2
              ~frame_body:(sum_frame_body space)
              ~cps_body:(fun ~obj ~a:_ ~b:_ -> method_sum (state obj));
        }
    | Adaptive ->
      let ad = Adaptive.create (Sysenv.runtime env) ~explore:6 () in
      Adapt
        {
          ad;
          objs =
            Array.init buckets (fun i ->
                Prelude.make_obj env.Sysenv.prelude ~home:(home i) (fresh_bucket ()));
          get_site = Adaptive.site ad ~name:"dht.get";
          put_site = Adaptive.site ad ~name:"dht.put";
          scan_site = Adaptive.site ad ~name:"dht.range_sum";
        }
    | Shared_memory ->
      let mem = Sysenv.mem env in
      Sm
        {
          mem;
          bases =
            Array.init buckets (fun i ->
                Shmem.alloc mem ~home:(home i) ~words:(off_pairs + (2 * bucket_capacity)));
          locks = Array.init buckets (fun i -> Lock.create mem ~home:(home i));
          capacity = bucket_capacity;
        }
  in
  { env; buckets; capacity = bucket_capacity; repr }

(* ------------------------------------------------------------------ *)
(* Operations                                                         *)
(* ------------------------------------------------------------------ *)

let obj_home p objs i = Prelude.obj_home p objs.(i)

let adapt_call p ad ~site objs i body =
  Adaptive.scope ad
    (Adaptive.call ad ~site ~home:(obj_home p objs i) ~args_words:8 ~result_words:2
       (body (Prelude.obj_state p objs.(i))))

(* Shared-memory bucket search: scan the pair area under the bucket
   lock, reading every key it passes. *)
let sm_find mem base ~count ~key =
  let rec go i =
    if i >= count then Thread.return None
    else
      let* k = Shmem.read mem (base + off_pairs + (2 * i)) in
      if k = key then Thread.return (Some i) else go (i + 1)
  in
  go 0

let sm_get mem locks bases t key =
  let i = bucket_of_key t key in
  let base = bases.(i) in
  Lock.with_lock locks.(i) (fun () ->
      let* count = Shmem.read mem (base + off_count) in
      let* slot = sm_find mem base ~count ~key in
      let* () = Thread.compute (bucket_work count) in
      match slot with
      | None -> Thread.return None
      | Some s ->
        let* v = Shmem.read mem (base + off_pairs + (2 * s) + 1) in
        Thread.return (Some v))

let sm_put mem locks bases capacity t ~key ~value =
  let i = bucket_of_key t key in
  let base = bases.(i) in
  Lock.with_lock locks.(i) (fun () ->
      let* count = Shmem.read mem (base + off_count) in
      let* slot = sm_find mem base ~count ~key in
      let* () = Thread.compute (bucket_work count) in
      match slot with
      | Some s -> Shmem.write mem (base + off_pairs + (2 * s) + 1) value
      | None ->
        if count >= capacity then failwith "Dht.put: bucket full"
        else
          let* () = Shmem.write mem (base + off_pairs + (2 * count)) key in
          let* () = Shmem.write mem (base + off_pairs + (2 * count) + 1) value in
          Shmem.write mem (base + off_count) (count + 1))

let sm_sum_bucket mem locks bases i =
  let base = bases.(i) in
  Lock.with_lock locks.(i) (fun () ->
      let* count = Shmem.read mem (base + off_count) in
      let* () = Thread.compute (bucket_work count) in
      let rec go s acc =
        if s >= count then Thread.return acc
        else
          let* v = Shmem.read mem (base + off_pairs + (2 * s) + 1) in
          go (s + 1) (acc + v)
      in
      go 0 0)

(* [get]/[put] take their context and continuation as explicit
   parameters: call sites that supply everything (the rewritten
   requester loops) compile to one saturated call, so the fused path
   builds no intermediate monad closure per operation. *)
let get t key c k =
  match t.repr with
  | Msg { objs; get_ms; _ } ->
    Runtime.msite_scoped get_ms ~obj:(objs.(bucket_of_key t key) :> int) ~a:key ~b:0 c k
  | Adapt { ad; objs; get_site; _ } ->
    adapt_call t.env.Sysenv.prelude ad ~site:get_site objs (bucket_of_key t key)
      (method_get key) c k
  | Sm { mem; bases; locks; _ } -> sm_get mem locks bases t key c k

let put t ~key ~value c k =
  match t.repr with
  | Msg { objs; put_ms; _ } ->
    Runtime.msite_scoped put_ms ~obj:(objs.(bucket_of_key t key) :> int) ~a:key ~b:value c k
  | Adapt { ad; objs; put_site; _ } ->
    adapt_call t.env.Sysenv.prelude ad ~site:put_site objs (bucket_of_key t key)
      (method_put t.capacity key value) c k
  | Sm { mem; bases; locks; capacity } -> sm_put mem locks bases capacity t ~key ~value c k

let range_sum t ~first_bucket ~n_buckets =
  if n_buckets <= 0 then invalid_arg "Dht.range_sum: empty range";
  let bucket_at j = (first_bucket + j) mod t.buckets in
  let p = t.env.Sysenv.prelude in
  match t.repr with
  | Msg { rt; objs; sum_ms; _ } ->
    Runtime.scope rt ~result_words:2
      (let rec go j acc =
         if j >= n_buckets then Thread.return acc
         else
           let* s = Runtime.msite_call sum_ms ~obj:(objs.(bucket_at j) :> int) ~a:0 ~b:0 in
           go (j + 1) (acc + s)
       in
       go 0 0)
  | Adapt { ad; objs; scan_site; _ } ->
    Adaptive.scope ad
      (let rec go j acc =
         if j >= n_buckets then Thread.return acc
         else
           let i = bucket_at j in
           let* s =
             Adaptive.call ad ~site:scan_site ~home:(obj_home p objs i) ~args_words:8
               ~result_words:2
               (method_sum (Prelude.obj_state p objs.(i)))
           in
           go (j + 1) (acc + s)
       in
       go 0 0)
  | Sm { mem; bases; locks; _ } ->
    let rec go j acc =
      if j >= n_buckets then Thread.return acc
      else
        let* s = sm_sum_bucket mem locks bases (bucket_at j) in
        go (j + 1) (acc + s)
    in
    go 0 0

(* ------------------------------------------------------------------ *)
(* Direct access (not simulated)                                      *)
(* ------------------------------------------------------------------ *)

(* [preload]/[peek] bypass the simulation: million-entry tables are
   built (and spot-checked) in real time before the clock starts, not
   one simulated put at a time. *)

let preload t ~key ~value =
  let i = bucket_of_key t key in
  match t.repr with
  | Msg { objs; _ } | Adapt { objs; _ } ->
    let b = Prelude.obj_state t.env.Sysenv.prelude objs.(i) in
    (match bkt_find b key with
    | -1 ->
      if bkt_count b >= t.capacity then failwith "Dht.preload: bucket full"
      else bkt_append b key value
    | s -> bkt_set b s value)
  | Sm { mem; bases; _ } ->
    let base = bases.(i) in
    let count = Shmem.peek mem (base + off_count) in
    let rec find s = if s >= count then -1 else if Shmem.peek mem (base + off_pairs + (2 * s)) = key then s else find (s + 1) in
    (match find 0 with
    | -1 ->
      if count >= t.capacity then failwith "Dht.preload: bucket full"
      else begin
        Shmem.poke mem (base + off_pairs + (2 * count)) key;
        Shmem.poke mem (base + off_pairs + (2 * count) + 1) value;
        Shmem.poke mem (base + off_count) (count + 1)
      end
    | s -> Shmem.poke mem (base + off_pairs + (2 * s) + 1) value)

let peek t key =
  let i = bucket_of_key t key in
  match t.repr with
  | Msg { objs; _ } | Adapt { objs; _ } ->
    let b = Prelude.obj_state t.env.Sysenv.prelude objs.(i) in
    (match bkt_find b key with -1 -> None | s -> Some b.(off_pairs + (2 * s) + 1))
  | Sm { mem; bases; _ } ->
    let base = bases.(i) in
    let count = Shmem.peek mem (base + off_count) in
    let rec find s = if s >= count then -1 else if Shmem.peek mem (base + off_pairs + (2 * s)) = key then s else find (s + 1) in
    (match find 0 with
    | -1 -> None
    | s -> Some (Shmem.peek mem (base + off_pairs + (2 * s) + 1)))

(* ------------------------------------------------------------------ *)
(* Inspection (not simulated)                                         *)
(* ------------------------------------------------------------------ *)

let contents t =
  let pairs =
    match t.repr with
    | Msg { objs; _ } | Adapt { objs; _ } ->
      Array.to_list objs
      |> List.concat_map (fun o ->
             let b = Prelude.obj_state t.env.Sysenv.prelude o in
             List.init (bkt_count b)
               (fun s -> (b.(off_pairs + (2 * s)), b.(off_pairs + (2 * s) + 1))))
    | Sm { mem; bases; _ } ->
      Array.to_list bases
      |> List.concat_map (fun base ->
             let count = Shmem.peek mem (base + off_count) in
             List.init count (fun s ->
                 ( Shmem.peek mem (base + off_pairs + (2 * s)),
                   Shmem.peek mem (base + off_pairs + (2 * s) + 1) )))
  in
  List.sort
    (fun (k1, v1) (k2, v2) ->
      match Int.compare k1 k2 with 0 -> Int.compare v1 v2 | c -> c)
    pairs

let size t = List.length (contents t)

let adaptive_report t =
  match t.repr with
  | Adapt { ad; get_site; put_site; scan_site; _ } ->
    List.map
      (fun s -> (Adaptive.site_name s, Adaptive.site_estimate ad s, Adaptive.site_samples ad s))
      [ get_site; put_site; scan_site ]
  | Msg _ | Sm _ -> []
