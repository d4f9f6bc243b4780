(* cm-lint: determinism / correctness / domain-safety lint for the
   simulation libraries — thin driver over lib/analysis (Cm_analysis).

   One typed analyzer over the .cmt files dune produces (resolved
   paths, module aliases expanded), so a run needs a build first:

   - Identifier rules, alias-proof: determinism, hashtbl-order, printf,
     raw-send, poly-compare, closure-compare (which asks the type
     checker whether an operand's type contains a function).

   - Two whole-library passes:
       domain-safety   classifies every module-init-time mutable
                       location by ownership (escaping / atomic / dls /
                       sync / mutex-guarded) and walks the cross-module
                       reference graph for state escaping its unit; an
                       atomic root is reported under global-state, so
                       each one carries a vetting allow comment.
       hot-alloc       flags closure / tuple / record / variant /
                       boxed-float / partial-application allocation
                       inside the declared hot-path set (Sim event
                       cycle, Transport pipelines, Thread combinators,
                       Processor dispatch).

   Findings come with resolved paths and, for the interprocedural
   rules, call-chain witnesses.

   Suppression: "(* lint: allow <rule> [why] *)" on the line or the line
   above, or "(* lint: allow-file <rule> [why] *)" anywhere in the file.
   domain-safety and hot-alloc demand the written justification; a
   suppression naming an unknown rule is itself a finding
   (bad-suppress).

   Findings print as "file:line: rule: msg", sorted by (file, line,
   rule); --json writes the machine-readable form (rule, path, ownership
   class, call-chain witness).  Exit status: 0 clean, 1 findings (any
   finding fails the run), 2 usage error or no .cmt file under the
   roots. *)

let usage () =
  prerr_endline
    "usage: lint.exe [--json FILE] [--source-root DIR] [root...]   (default root: lib)";
  exit 2

let () =
  let json_out = ref None
  and source_root = ref "."
  and roots = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: f :: rest -> json_out := Some f; parse rest
    | "--source-root" :: d :: rest -> source_root := d; parse rest
    | arg :: _ when String.length arg > 2 && String.sub arg 0 2 = "--" ->
      Printf.eprintf "cm-lint: unknown option %s\n" arg;
      usage ()
    | root :: rest -> roots := root :: !roots; parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let roots = match List.rev !roots with [] -> [ "lib" ] | r -> r in
  let outcome =
    Cm_analysis.Driver.run
      { (Cm_analysis.Driver.default_config roots) with source_root = !source_root }
  in
  List.iter (fun e -> Printf.eprintf "%s\n" e) outcome.errors;
  if outcome.units_analyzed = 0 then begin
    Printf.eprintf "cm-lint: no .cmt files under %s (build first: dune build)\n"
      (String.concat " " roots);
    exit 2
  end;
  (match !json_out with
  | Some path ->
    let oc = open_out_bin path in
    output_string oc (Cm_analysis.Finding.list_to_json outcome.findings);
    close_out oc
  | None -> ());
  List.iter (fun f -> print_endline (Cm_analysis.Finding.to_string f)) outcome.findings;
  if outcome.findings <> [] || outcome.errors <> [] then begin
    Printf.eprintf "cm-lint: %d finding(s) in %d typed unit(s)\n"
      (List.length outcome.findings) outcome.units_analyzed;
    exit 1
  end
  else Printf.printf "cm-lint: clean — %d typed unit(s)\n" outcome.units_analyzed
