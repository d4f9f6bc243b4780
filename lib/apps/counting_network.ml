open Cm_machine
open Cm_memory
open Cm_runtime
open Cm_core
open Thread.Infix

type sm_sync = Atomic_toggle | Lock_per_balancer

type mode = Messaging of Prelude.access | Shared_memory

let mode_name = function
  | Messaging Prelude.Rpc -> "rpc"
  | Messaging Prelude.Migrate -> "migrate"
  | Shared_memory -> "shared_memory"

(* Cycles of user code per balancer/counter visit under the messaging
   runtime — the "User code" row of the paper's Table 5. *)
let user_work = 150

(* CPU work per visit in shared-memory mode: toggle-and-route only; the
   messaging overheads do not exist, memory stalls dominate instead. *)
let sm_work = 30

(* Messaging-mode object states.  Destinations use the static network
   description; objects are looked up through the arrays in [repr]. *)
type bal = { mutable toggle : bool; top : Balancer_net.dest; bot : Balancer_net.dest }

type cnt = { mutable count : int; wire : int }

type repr =
  | Msg of {
      bals : bal Prelude.obj array;
      cnts : cnt Prelude.obj array;
      (* One method site per object class: a visit is one
         [Runtime.msite_call], so the steady-state traversal allocates
         nothing per hop. *)
      bal_ms : Balancer_net.dest Runtime.msite;
      cnt_ms : int Runtime.msite;
    }
  | Sm of {
      bal_addr : int array;
      locks : Lock.t array;
      cnt_addr : int array;
      sync : sm_sync;
    }

type t = {
  env : Sysenv.t;
  net : Balancer_net.t;
  repr : repr;
}

(* Shared-memory destination encoding: balancer ids are >= 0; exit wire
   [w] is encoded as [-(w + 1)]. *)
let encode = function Balancer_net.Balancer b -> b | Balancer_net.Exit w -> -(w + 1)

let decode n = if n >= 0 then Balancer_net.Balancer n else Balancer_net.Exit (-n - 1)

(* Method bodies for the messaging objects, as method-site frame
   bodies: charge the user work at the object's home, then read and
   update its state from the object store. *)
let ms_state space c = Obj.obj (Objspace.state space (Objspace.id_of_int (Runtime.msite_obj c)))

let bal_frame_body space =
  let done_ c =
    let st : bal = ms_state space c in
    let out = if st.toggle then st.bot else st.top in
    st.toggle <- not st.toggle;
    Runtime.msite_finish c out
  in
  fun c -> Thread.Frame.hold_then c user_work done_

let cnt_frame_body space w =
  let done_ c =
    let st : cnt = ms_state space c in
    let count = st.count in
    st.count <- st.count + 1;
    Runtime.msite_finish c ((count * w) + st.wire)
  in
  fun c -> Thread.Frame.hold_then c user_work done_

let create env ?(sm_sync = Lock_per_balancer) ?(lock_backoff = (512, 4096)) mode =
  (* The paper's network: bitonic, 8 wires wide (6 layers of 4 balancers). *)
  let net = Balancer_net.bitonic 8 in
  let width = Balancer_net.width net in
  let n = Balancer_net.n_balancers net in
  let n_procs = Machine.n_procs env.Sysenv.machine in
  let procs = Array.init n (fun i -> i mod n_procs) in
  let counter_proc w = procs.(Balancer_net.feeder_of_exit net w) in
  let repr =
    match mode with
    | Messaging access ->
      let prelude = env.Sysenv.prelude in
      let bals =
        Array.init n (fun b ->
            let top, bot = Balancer_net.outputs net b in
            Prelude.make_obj prelude ~home:procs.(b) { toggle = false; top; bot })
      in
      let cnts =
        Array.init width (fun w ->
            Prelude.make_obj prelude ~home:(counter_proc w) { count = 0; wire = w })
      in
      let rt = Prelude.runtime prelude and space = Prelude.space prelude in
      let msite frame_body =
        Runtime.msite rt ~access ~space ~args_words:Prelude.default_args_words
          ~result_words:Prelude.default_result_words ~frame_body
      in
      Msg
        {
          bals;
          cnts;
          bal_ms = msite (bal_frame_body space);
          cnt_ms = msite (cnt_frame_body space width);
        }
    | Shared_memory ->
      let mem = Sysenv.mem env in
      let bal_addr =
        Array.init n (fun b ->
            let top, bot = Balancer_net.outputs net b in
            let a = Shmem.alloc mem ~home:procs.(b) ~words:3 in
            Shmem.poke mem a 0;
            Shmem.poke mem (a + 1) (encode top);
            Shmem.poke mem (a + 2) (encode bot);
            a)
      in
      (* Balancer locks are extremely contended; probe rarely by
         default ([lock_backoff] is an ablation knob). *)
      let base_backoff, max_backoff = lock_backoff in
      let locks =
        Array.init n (fun b -> Lock.create ~base_backoff ~max_backoff mem ~home:procs.(b))
      in
      let cnt_addr = Array.init width (fun w -> Shmem.alloc mem ~home:(counter_proc w) ~words:1) in
      Sm { bal_addr; locks; cnt_addr; sync = sm_sync }
  in
  { env; net; repr }

let width t = Balancer_net.width t.net

let n_balancers t = Balancer_net.n_balancers t.net

let traverse_msg t ~(bals : bal Prelude.obj array) ~(cnts : cnt Prelude.obj array) ~bal_ms ~cnt_ms
    ~input_wire =
  let prelude = t.env.Sysenv.prelude in
  let first = Balancer_net.input t.net input_wire in
  Prelude.proc prelude (fun c k ->
      (* One cursor closure per traversal; each hop is one method-site
         call. *)
      let rec step dest =
        match dest with
        | Balancer_net.Balancer b ->
          Runtime.msite_call bal_ms ~obj:(bals.(b) :> int) ~a:0 ~b:0 c step
        | Balancer_net.Exit wire ->
          Runtime.msite_call cnt_ms ~obj:(cnts.(wire) :> int) ~a:0 ~b:0 c k
      in
      step first)

let traverse_sm t ~bal_addr ~locks ~cnt_addr ~sync ~input_wire =
  let mem = Sysenv.mem t.env in
  let w = width t in
  let rec go dest =
    match dest with
    | Balancer_net.Balancer b ->
      let base = bal_addr.(b) in
      let* toggle =
        match sync with
        | Atomic_toggle ->
          (* The balancer is a 2-state switch: one atomic
             fetch-and-toggle transfers line ownership and flips it. *)
          Shmem.rmw mem base (fun v -> 1 - v)
        | Lock_per_balancer ->
          (* Ablation: a spin-lock-protected critical section, showing
             the coherence storms test-and-test&set causes on
             write-shared data. *)
          let* () = Lock.acquire locks.(b) in
          let* toggle = Shmem.read mem base in
          let* () = Shmem.write mem base (1 - toggle) in
          let* () = Lock.release locks.(b) in
          Thread.return toggle
      in
      (* The destination words share the balancer's (now owned) line. *)
      let* next = Shmem.read mem (base + if toggle = 0 then 1 else 2) in
      let* () = Thread.compute sm_work in
      go (decode next)
    | Balancer_net.Exit wire ->
      let* count = Shmem.rmw mem cnt_addr.(wire) (fun v -> v + 1) in
      let* () = Thread.compute sm_work in
      Thread.return ((count * w) + wire)
  in
  go (Balancer_net.input t.net input_wire)

let traverse t ~input_wire =
  if input_wire < 0 || input_wire >= width t then
    invalid_arg "Counting_network.traverse: bad input wire";
  match t.repr with
  | Msg { bals; cnts; bal_ms; cnt_ms } -> traverse_msg t ~bals ~cnts ~bal_ms ~cnt_ms ~input_wire
  | Sm { bal_addr; locks; cnt_addr; sync } ->
    traverse_sm t ~bal_addr ~locks ~cnt_addr ~sync ~input_wire

let output_counts t =
  match t.repr with
  | Msg { cnts; _ } ->
    Array.map (fun o -> (Prelude.obj_state t.env.Sysenv.prelude o).count) cnts
  | Sm { cnt_addr; _ } -> Array.map (fun a -> Shmem.peek (Sysenv.mem t.env) a) cnt_addr

let tokens_delivered t = Array.fold_left ( + ) 0 (output_counts t)

let satisfies_step_property t = Balancer_net.step_property ~counts:(output_counts t)
