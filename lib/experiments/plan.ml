type 'r job = unit -> 'r * string list

type t = Plan : { jobs : 'r job list; render : 'r list -> string } -> t

let make ~jobs ~render = Plan { jobs; render }

let digested (machine, r) = (r, [ Cm_machine.Machine.digest machine ])

let execute ?pool (Plan { jobs; render }) =
  let results =
    match pool with
    | None -> List.map (fun job -> job ()) jobs
    | Some p -> Cm_engine.Pool.run_all p jobs
  in
  (render (List.map fst results), List.concat_map snd results)

let chunk n xs =
  if n <= 0 then invalid_arg "Plan.chunk: chunk size must be positive";
  let rec go acc current k = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | x :: rest ->
      if k = n then go (List.rev current :: acc) [ x ] 1 rest
      else go acc (x :: current) (k + 1) rest
  in
  go [] [] 0 xs
