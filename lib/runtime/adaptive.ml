open Cm_machine
open Thread.Infix

(* Exponential-moving-average weight for new activation samples. *)
let alpha = 0.3

type site_state = {
  name : string;
  mutable estimate : float;  (* EWMA of calls following this site *)
  mutable samples : int;
  mutable explore_toggle : bool;  (* alternate mechanisms while exploring *)
}

type site = site_state

type t = {
  rt : Runtime.t;
  threshold : float;
  explore : int;
  mutable sites : site_state list;
  (* Per running activation (keyed by thread id): the sites of the
     annotated calls made so far, most recent first. *)
  logs : (int, site_state list ref) Hashtbl.t;
  mutable migrations : int;
  mutable rpcs : int;
}

let create rt ?(threshold = 1.0) ?(explore = 6) () =
  if Float.is_nan threshold then
    invalid_arg "Adaptive.create: threshold = nan, expected a number in [-inf, inf]";
  if explore < 0 then
    invalid_arg (Printf.sprintf "Adaptive.create: explore = %d, expected an integer >= 0" explore);
  { rt; threshold; explore; sites = []; logs = Hashtbl.create 16; migrations = 0; rpcs = 0 }

let site t ~name =
  let s = { name; estimate = nan; samples = 0; explore_toggle = false } in
  t.sites <- s :: t.sites;
  s

let record_sample s follow =
  let f = float_of_int follow in
  s.estimate <- (if s.samples = 0 then f else ((1. -. alpha) *. s.estimate) +. (alpha *. f));
  s.samples <- s.samples + 1

(* Credit each call in a finished activation with the number of calls
   that followed it (the log is most-recent-first). *)
let close_log t tid =
  match Hashtbl.find_opt t.logs tid with
  | None -> ()
  | Some log ->
    List.iteri (fun follow s -> record_sample s follow) !log;
    Hashtbl.remove t.logs tid

let scope t ?at_base ?(result_words = 2) body =
  Runtime.scope t.rt ?at_base ~result_words
    (let* tid = Thread.tid in
     Hashtbl.replace t.logs tid (ref []);
     let* result = body in
     close_log t tid;
     Thread.return result)

let choose t s =
  if s.samples < t.explore then begin
    (* Alternate deterministically while gathering samples. *)
    s.explore_toggle <- not s.explore_toggle;
    if s.explore_toggle then Runtime.Migrate else Runtime.Rpc
  end
  else if s.estimate >= t.threshold then Runtime.Migrate
  else Runtime.Rpc

let decide t ~site:s ~home =
  let* tid = Thread.tid in
  (match Hashtbl.find_opt t.logs tid with
  | Some log -> log := s :: !log
  | None -> invalid_arg "Adaptive.decide: not inside Adaptive.scope");
  let+ p = Thread.proc in
  if Processor.id p = home then Runtime.Rpc (* local either way; Runtime runs it inline *)
  else begin
    let a = choose t s in
    (match a with
    | Runtime.Migrate -> t.migrations <- t.migrations + 1
    | Runtime.Rpc -> t.rpcs <- t.rpcs + 1);
    a
  end

let chosen_migrations t = t.migrations

let chosen_rpcs t = t.rpcs

let site_estimate _t s = s.estimate

let site_samples _t s = s.samples

let site_name s = s.name
