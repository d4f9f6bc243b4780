type job = unit -> Cm_workload.Metrics.t

type t =
  | Sweep of { jobs : job list; render : Cm_workload.Metrics.t list -> unit }
  | Serial of (unit -> unit)

let sweep ~jobs ~render = Sweep { jobs; render }

let serial f = Serial f

let execute ?pool t =
  match t with
  | Serial f -> f ()
  | Sweep { jobs; render } ->
    let results =
      match pool with
      | None -> List.map (fun job -> job ()) jobs
      | Some p -> Cm_engine.Pool.run_all p jobs
    in
    render results

let chunk n xs =
  if n <= 0 then invalid_arg "Plan.chunk: chunk size must be positive";
  let rec go acc current k = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | x :: rest ->
      if k = n then go (List.rev current :: acc) [ x ] 1 rest
      else go acc (x :: current) (k + 1) rest
  in
  go [] [] 0 xs
