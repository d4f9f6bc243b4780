open Cm_machine
open Cm_runtime

(* Objects are bare indices into one per-instance [Objspace] — the
   struct-of-arrays store holds every object's home and payload, so a
   ['state obj] is an immediate int (an [obj array] is a flat int
   vector, never a pointer table) and [obj_home] is one unboxed load.
   The ['state] parameter is phantom: [make_obj] is the only producer,
   so the payload stored at an index always has the type its obj
   carries. *)
type t = { rt : Runtime.t; objs : Obj.t Objspace.t }

type access = Runtime.access = Rpc | Migrate

type 'state obj = int

let create machine = { rt = Runtime.create machine; objs = Objspace.create machine }

let runtime t = t.rt

let space t = t.objs

let machine t = Runtime.machine t.rt

let make_obj t ~home state =
  if home < 0 || home >= Machine.n_procs (machine t) then
    invalid_arg "Prelude.make_obj: bad home processor";
  (Objspace.register t.objs ~home (Obj.repr state) :> int)

let obj_home t o = Objspace.home t.objs (Objspace.id_of_int o)

let obj_state (type s) t (o : s obj) : s = Obj.obj (Objspace.state t.objs (Objspace.id_of_int o))

let default_args_words = 8

let default_result_words = 2

let invoke t ~access ?(args_words = default_args_words) ?(result_words = default_result_words) o
    m =
  let home = obj_home t o in
  Runtime.call t.rt ~access ~home ~args_words ~result_words (fun c k ->
      (* Instance methods always execute at the invoked object (Prelude's
         calling convention); the runtime guarantees this. *)
      assert (Processor.id (Thread.Frame.proc c) = home);
      m (obj_state t o) c k)

let proc t ?at_base ?(result_words = default_result_words) body =
  Runtime.scope t.rt ?at_base ~result_words body
