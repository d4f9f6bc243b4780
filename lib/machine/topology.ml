type shape = Mesh | Torus | Crossbar

type t = { shape : shape; size : int; cols : int; rows : int }

let grid_dims n =
  let cols = int_of_float (ceil (sqrt (float_of_int n))) in
  let rows = (n + cols - 1) / cols in
  (cols, rows)

let make shape n =
  if n <= 0 then invalid_arg "Topology: size must be positive";
  let cols, rows = grid_dims n in
  { shape; size = n; cols; rows }

let mesh n = make Mesh n

let torus n = make Torus n

let crossbar n = make Crossbar n

let size t = t.size

let check t id =
  if id < 0 || id >= t.size then
    invalid_arg (Printf.sprintf "Topology.hops: processor %d out of range [0,%d)" id t.size)

let coords t id = (id mod t.cols, id / t.cols)

let hops t ~src ~dst =
  check t src;
  check t dst;
  if src = dst then 0
  else
    match t.shape with
    | Crossbar -> 1
    | Mesh ->
      let x1, y1 = coords t src and x2, y2 = coords t dst in
      abs (x1 - x2) + abs (y1 - y2)
    | Torus ->
      let x1, y1 = coords t src and x2, y2 = coords t dst in
      let wrap d len = min d (len - d) in
      wrap (abs (x1 - x2)) t.cols + wrap (abs (y1 - y2)) t.rows

let id_of t (x, y) = (y * t.cols) + x

(* One step toward [target] along one axis, honouring torus wrap. *)
let step_toward cur target len wrap =
  if cur = target then cur
  else begin
    let forward = (target - cur + len) mod len in
    let backward = (cur - target + len) mod len in
    if wrap && backward < forward then (cur - 1 + len) mod len
    else if wrap then (cur + 1) mod len
    else if target > cur then cur + 1
    else cur - 1
  end

let route t ~src ~dst =
  check t src;
  check t dst;
  if src = dst then []
  else
    match t.shape with
    | Crossbar -> [ (src, dst) ]
    | Mesh | Torus ->
      let wrap = t.shape = Torus in
      let rec go (x, y) acc =
        if (x, y) = coords t dst then List.rev acc
        else begin
          let tx, ty = coords t dst in
          let next =
            if x <> tx then (step_toward x tx t.cols wrap, y)
            else (x, step_toward y ty t.rows wrap)
          in
          go next ((id_of t (x, y), id_of t next) :: acc)
        end
      in
      go (coords t src) []

let mean_hops t =
  if t.size <= 1 then 0.
  else begin
    let total = ref 0 in
    for src = 0 to t.size - 1 do
      for dst = 0 to t.size - 1 do
        if src <> dst then total := !total + hops t ~src ~dst
      done
    done;
    float_of_int !total /. float_of_int (t.size * (t.size - 1))
  end

let kind_name t =
  match t.shape with Mesh -> "mesh" | Torus -> "torus" | Crossbar -> "crossbar"
