type row = { label : string; paper : float option; measured : float }

let text f =
  let b = Buffer.create 4096 in
  f b;
  Buffer.contents b

let header b title = Printf.bprintf b "\n=== %s ===\n" title

let table b ~metric rows =
  let width = List.fold_left (fun acc r -> max acc (String.length r.label)) 12 rows in
  Printf.bprintf b "%-*s  %12s  %12s  %8s\n" width "scheme" ("paper " ^ metric) "measured" "ratio";
  List.iter
    (fun r ->
      match r.paper with
      | Some p ->
        Printf.bprintf b "%-*s  %12.4f  %12.4f  %8.2f\n" width r.label p r.measured
          (if p = 0. then nan else r.measured /. p)
      | None -> Printf.bprintf b "%-*s  %12s  %12.4f  %8s\n" width r.label "-" r.measured "-")
    rows

let series b ~x_label ~metric ~xs curves =
  let width = List.fold_left (fun acc (name, _) -> max acc (String.length name)) 12 curves in
  Printf.bprintf b "%s (%s):\n%-*s" metric x_label width "";
  List.iter (fun x -> Printf.bprintf b "  %8d" x) xs;
  Buffer.add_char b '\n';
  List.iter
    (fun (name, ys) ->
      Printf.bprintf b "%-*s" width name;
      List.iter (fun y -> Printf.bprintf b "  %8.3f" y) ys;
      Buffer.add_char b '\n')
    curves

let note b s = Printf.bprintf b "  %s\n" s
