open Cm_machine
open Cm_runtime
open Thread.Infix

(* Object state is [obj_words] words on the wire — larger than an
   activation (8 words), as the paper assumes when it argues that moving
   data can be the more expensive direction. *)
let obj_words = 24

type policy = Cp | Obj_pull | Stationary

let policy_name = function
  | Cp -> "computation migration"
  | Obj_pull -> "object migration (pull)"
  | Stationary -> "stationary calls (RPC)"

let line label machine finished =
  Printf.sprintf "   %-26s messages=%-4d words=%-5d cycles=%d\n" label
    (Network.total_messages machine.Machine.net)
    (Network.total_words machine.Machine.net)
    finished

let with_run ~n_procs f =
  let machine = Machine.create ~seed:42 ~n_procs ~costs:Costs.software () in
  let rt = Runtime.create machine in
  let space = Objspace.create machine in
  let om = Objmig.create rt space ~words_of:(fun (_ : int ref) -> obj_words) in
  let finished = ref 0 in
  Machine.spawn machine ~on:0
    (let* () = f machine rt space om in
     finished := Machine.now machine;
     Thread.return ());
  Machine.run machine;
  (machine, !finished)

(* One access to object [i] under the chosen policy. *)
let access rt space om policy i body =
  match policy with
  | Cp ->
    Runtime.call rt ~access:Runtime.Migrate ~home:(Objspace.home space i) ~args_words:8
      ~result_words:2 (body (Objspace.state space i))
  | Obj_pull -> Objmig.call_pull om i ~result_words:2 body
  | Stationary -> Objmig.call om i ~args_words:8 ~result_words:2 body

(* Scenario A: pointer chase across m objects, n accesses each. *)
let chase policy =
  let m = 8 and n = 3 in
  with_run ~n_procs:(m + 1) (fun _machine rt space om ->
      let ids = Array.init m (fun j -> Objspace.register space ~home:(j + 1) (ref (10 * j))) in
      Runtime.scope rt ~result_words:2
        (Thread.iter_list
           (fun j ->
             Thread.repeat n (fun _ ->
                 Thread.ignore_m
                   (access rt space om policy ids.(j) (fun c ->
                        let* () = Thread.compute 30 in
                        Thread.return !c))))
           (List.init m (fun j -> j))))

(* Scenario B: one thread repeatedly using one remote object. *)
let private_hot policy =
  with_run ~n_procs:8 (fun _machine rt space om ->
      let i = Objspace.register space ~home:5 (ref 0) in
      Runtime.scope rt ~result_words:2
        (Thread.repeat 20 (fun _ ->
             Thread.ignore_m
               (access rt space om policy i (fun c ->
                    incr c;
                    Thread.compute 30)))))

(* Scenario C: a write-shared object accessed by four strictly
   alternating threads. *)
let write_shared policy =
  let threads = 4 and rounds = 6 in
  let machine = Machine.create ~seed:42 ~n_procs:8 ~costs:Costs.software () in
  let rt = Runtime.create machine in
  let space = Objspace.create machine in
  let om = Objmig.create rt space ~words_of:(fun (_ : int ref) -> obj_words) in
  let i = Objspace.register space ~home:0 (ref 0) in
  let turn = ref 0 in
  for th = 0 to threads - 1 do
    Machine.spawn machine ~on:(th + 1)
      (Thread.repeat rounds (fun _ ->
           let* () = Thread.while_ (fun () -> !turn mod threads <> th) (Thread.sleep 40) in
           let* () =
             Runtime.scope rt ~result_words:2
               (Thread.ignore_m
                  (access rt space om policy i (fun c ->
                       incr c;
                       Thread.compute 30)))
           in
           incr turn;
           Thread.return ()))
  done;
  Machine.run machine;
  (machine, Machine.now machine)

let scenarios =
  [
    ("A: pointer chase, 3 accesses to each of 8 remote objects", chase);
    ("B: one thread, 20 accesses to one remote object", private_hot);
    ("C: write-shared object, 4 alternating writers", write_shared);
  ]

let policies = [ Cp; Obj_pull; Stationary ]

(* One job per (scenario, policy) cell, scenario-major: its report line
   and its machine's digest. *)
let jobs =
  List.concat_map
    (fun (_, scenario) ->
      List.map
        (fun p () ->
          let machine, t = scenario p in
          Plan.digested (machine, line (policy_name p) machine t))
        policies)
    scenarios

let render lines =
  Report.text (fun b ->
      Report.header b
        "Extension: object migration (Emerald-style) vs computation migration (S4's missing \
         comparison)";
      List.iter2
        (fun (title, _) cells ->
          Printf.bprintf b "\n-- %s --\n" title;
          List.iter (Buffer.add_string b) cells)
        scenarios
        (Plan.chunk (List.length policies) lines);
      Report.note b
        "A and B: moving something once and staying is best - the activation (A) or the";
      Report.note b
        "object (B); both beat stationary RPC.  C: the write-shared case - the object";
      Report.note b
        "ping-pongs with its full state while computation migration ships only small";
      Report.note b "activations, the paper's S2.2 argument, now measured.";
      Report.note b
        "(Counting-network/B-tree runs under full object migration are omitted: balancer";
      Report.note b
        "and node objects are write-shared by many threads, which scenario C covers.)")

let plan ?quick:_ () = Plan.make ~jobs ~render
