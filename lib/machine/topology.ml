type shape = Mesh | Torus | Crossbar

(* [xs]/[ys] hold each processor's grid column and row (2N words), so
   [hops] — computed for every message — is two loads per endpoint: no
   division and no coordinate tuple. *)
type t = { shape : shape; size : int; cols : int; rows : int; xs : int array; ys : int array }

let grid_dims n =
  let cols = int_of_float (ceil (sqrt (float_of_int n))) in
  let rows = (n + cols - 1) / cols in
  (cols, rows)

let make shape n =
  if n <= 0 then invalid_arg "Topology: size must be positive";
  let cols, rows = grid_dims n in
  {
    shape;
    size = n;
    cols;
    rows;
    xs = Array.init n (fun id -> id mod cols);
    ys = Array.init n (fun id -> id / cols);
  }

let mesh n = make Mesh n

let torus n = make Torus n

let crossbar n = make Crossbar n

let size t = t.size

(* The failure path is out of line so [check] on the per-message path
   allocates nothing. *)
let[@inline never] out_of_range t id =
  invalid_arg (Printf.sprintf "Topology.hops: processor %d out of range [0,%d)" id t.size)

let[@inline] check t id = if id < 0 || id >= t.size then out_of_range t id

(* Branch-free [abs] and [min]: message endpoints are arbitrary pairs, so
   a branch on the sign of a coordinate difference would mispredict
   about half the time on the per-message path. *)
let sign_mask d = d asr (Sys.int_size - 1)

let[@inline] iabs d =
  let m = sign_mask d in
  (d lxor m) - m

let[@inline] imin a b =
  let d = a - b in
  b + (d land sign_mask d)

(* Coordinate differences; callers have [check]ed both ids, and [xs]/[ys]
   have one entry per processor. *)
let[@inline] dx t ~src ~dst = Array.unsafe_get t.xs src - Array.unsafe_get t.xs dst

let[@inline] dy t ~src ~dst = Array.unsafe_get t.ys src - Array.unsafe_get t.ys dst

let coords t id = (id mod t.cols, id / t.cols)

let hops t ~src ~dst =
  check t src;
  check t dst;
  if src = dst then 0
  else
    match t.shape with
    | Crossbar -> 1
    | Mesh -> iabs (dx t ~src ~dst) + iabs (dy t ~src ~dst)
    | Torus ->
      let ax = iabs (dx t ~src ~dst) and ay = iabs (dy t ~src ~dst) in
      imin ax (t.cols - ax) + imin ay (t.rows - ay)

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
