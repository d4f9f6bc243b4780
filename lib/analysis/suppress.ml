(* Source-comment suppressions, shared by every pass.

   A finding is allowed when its line (or the line above) carries
   "(* lint: allow <rule> [justification] *)", or the file carries
   "(* lint: allow-file <rule> [justification] *)" anywhere.

   Two hardenings over a plain allow-comment filter:

   - a suppression naming a rule the analyzer does not know is itself a
     finding ([bad-suppress]) instead of silently doing nothing — a typo
     in a rule name used to turn the escape hatch into a no-op that
     looked intentional;
   - rules in [justified] (the shard-safety and hot-path-allocation
     passes) demand a written justification after the rule name; an
     allow comment for them with no justification text does not suppress
     and is reported as [bad-suppress]. *)

let rules =
  [
    "determinism";
    "hashtbl-order";
    "closure-compare";
    "printf";
    "poly-compare";
    "raw-send";
    "global-state";
    "domain-safety";
    "hot-alloc";
    "bad-suppress";
  ]

let justified = [ "domain-safety"; "hot-alloc" ]

type entry = {
  s_line : int;
  s_rule : string;
  s_file_wide : bool;
  s_just : string;  (* justification text after the rule name, trimmed *)
}

type t = { path : string; lines : string array; entries : entry list }

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> Array.of_list (List.rev acc)
      in
      go [])

let find_sub hay needle ~from =
  let n = String.length hay and m = String.length needle in
  let rec go i = if i + m > n then None else if String.sub hay i m = needle then Some i else go (i + 1) in
  go from

let is_rule_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-'

(* Parse "<rule> [justification]" starting at [i]; the justification runs
   to the comment close (or end of line). *)
let parse_at line i ~file_wide ~lnum =
  let n = String.length line in
  let i = ref i in
  while !i < n && line.[!i] = ' ' do incr i done;
  let start = !i in
  while !i < n && is_rule_char line.[!i] do incr i done;
  if !i = start then None
  else begin
    let rule = String.sub line start (!i - start) in
    let rest = String.sub line !i (n - !i) in
    let rest = match find_sub rest "*)" ~from:0 with
      | Some j -> String.sub rest 0 j
      | None -> rest
    in
    let just = String.trim rest in
    Some { s_line = lnum; s_rule = rule; s_file_wide = file_wide; s_just = just }
  end

let scan_line lnum line acc =
  let rec go from acc =
    match find_sub line "lint: allow" ~from with
    | None -> acc
    | Some i ->
      let after = i + String.length "lint: allow" in
      let file_wide, after =
        let tag = "-file " in
        if after + String.length tag <= String.length line
           && String.sub line after (String.length tag) = tag
        then (true, after + String.length tag)
        else (false, after)
      in
      let acc =
        match parse_at line after ~file_wide ~lnum with
        | Some e -> e :: acc
        | None -> acc
      in
      go (after + 1) acc
  in
  go 0 acc

(* [load ~source_root path] parses the suppressions of the source file
   reported as [path] by a pass.  Typed passes report compiler paths
   (relative to the build root); when they do not resolve from the
   current directory, [source_root] is tried as a prefix. *)
let load ~source_root path =
  let resolved =
    if Sys.file_exists path then path
    else
      let alt = Filename.concat source_root path in
      if Sys.file_exists alt then alt else path
  in
  let lines = try read_lines resolved with Sys_error _ -> [||] in
  let entries = ref [] in
  Array.iteri (fun i line -> entries := scan_line (i + 1) line !entries) lines;
  { path; lines; entries = List.rev !entries }

let has_justification e = String.exists (fun c -> is_rule_char c || (c >= 'A' && c <= 'Z')) e.s_just

let entry_valid e =
  List.mem e.s_rule rules && (has_justification e || not (List.mem e.s_rule justified))

let suppressed t ~line ~rule =
  List.exists
    (fun e ->
      e.s_rule = rule && entry_valid e
      && (e.s_file_wide || e.s_line = line || e.s_line = line - 1))
    t.entries

(* Misuses of the suppression syntax, as findings. *)
let audit t =
  List.filter_map
    (fun e ->
      if not (List.mem e.s_rule rules) then
        Some
          (Finding.v ~file:t.path ~line:e.s_line ~rule:"bad-suppress"
             ~context:e.s_rule ~detail:"unknown-rule"
             (Printf.sprintf
                "suppression names unknown rule %S (known: %s); it has no effect"
                e.s_rule (String.concat ", " rules)))
      else if List.mem e.s_rule justified && not (has_justification e) then
        Some
          (Finding.v ~file:t.path ~line:e.s_line ~rule:"bad-suppress"
             ~context:e.s_rule ~detail:"missing-justification"
             (Printf.sprintf
                "suppressing %S requires a written justification after the rule name"
                e.s_rule))
      else None)
    t.entries
