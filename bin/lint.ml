(* cm-lint: determinism / correctness / shard-safety lint for the
   simulation libraries — thin driver over lib/analysis (Cm_analysis).

   Two layers of rules:

   - *Syntactic* (parsetree, no build artifacts needed): determinism,
     hashtbl-order, closure-compare (name heuristic), printf,
     poly-compare, raw-send, global-state.  A fast tripwire: it matches
     identifiers as written, so a module alias can hide a call from it.

   - *Typed* (over the .cmt files dune produces, resolved paths, module
     aliases expanded): the identifier rules re-run alias-proof
     (determinism, hashtbl-order, printf, raw-send, poly-compare,
     closure-compare — the typed variant asks the type checker whether
     an operand's type contains a function), plus two whole-library
     passes:
       domain-safety   classifies every module-init-time mutable
                       location by ownership (escaping / atomic / dls /
                       sync / mutex-guarded), walks the cross-module
                       reference graph for state escaping its unit, and
                       flags unsynchronized mutable payloads crossing
                       shard boundaries through Transport.
       hot-alloc       flags closure / tuple / record / variant /
                       boxed-float / partial-application allocation
                       inside the declared hot-path set (Sim event
                       cycle, Transport pipelines, Thread combinators,
                       Processor dispatch).

   The typed passes make the old header's caveat ("parses but does not
   type — it is a tripwire, not a proof") obsolete for everything above:
   findings come with resolved paths and, for the interprocedural rules,
   call-chain witnesses.

   Suppression: "(* lint: allow <rule> [why] *)" on the line or the line
   above, "(* lint: allow-file <rule> [why] *)" anywhere in the file, or
   [@cm.shard_safe "why"] on a binding (domain-safety only).
   domain-safety and hot-alloc demand the written justification; a
   suppression naming an unknown rule is itself a finding
   (bad-suppress).

   Findings print as "file:line: rule: msg", sorted by (file, line,
   rule); --json writes the machine-readable form (rule, path, ownership
   class, call-chain witness); --baseline FILE tolerates the checked-in
   debt and fails only on findings beyond it.  Exit status: 0 clean,
   1 findings, 2 usage/IO error. *)

let usage () =
  prerr_endline
    "usage: lint.exe [--json FILE] [--baseline FILE] [--write-baseline FILE]\n\
    \                [--syntactic-only] [--typed-only] [--require-cmt]\n\
    \                [--source-root DIR] [root...]   (default root: lib)";
  exit 2

let () =
  let json_out = ref None
  and baseline_in = ref None
  and baseline_out = ref None
  and syntactic = ref true
  and typed = ref true
  and require_cmt = ref false
  and source_root = ref "."
  and roots = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: f :: rest -> json_out := Some f; parse rest
    | "--baseline" :: f :: rest -> baseline_in := Some f; parse rest
    | "--write-baseline" :: f :: rest -> baseline_out := Some f; parse rest
    | "--syntactic-only" :: rest -> typed := false; parse rest
    | "--typed-only" :: rest -> syntactic := false; parse rest
    | "--require-cmt" :: rest -> require_cmt := true; parse rest
    | "--source-root" :: d :: rest -> source_root := d; parse rest
    | arg :: _ when String.length arg > 2 && String.sub arg 0 2 = "--" -> usage ()
    | root :: rest -> roots := root :: !roots; parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if not (!syntactic || !typed) then begin
    prerr_endline "cm-lint: --syntactic-only and --typed-only together select no pass";
    usage ()
  end;
  let roots = match List.rev !roots with [] -> [ "lib" ] | r -> r in
  let config =
    {
      Cm_analysis.Driver.roots;
      source_root = !source_root;
      syntactic = !syntactic;
      typed = !typed;
      hot = Cm_analysis.Hot_alloc.default;
    }
  in
  let outcome = Cm_analysis.Driver.run config in
  List.iter (fun e -> Printf.eprintf "%s\n" e) outcome.errors;
  if !typed && !require_cmt && outcome.units_analyzed = 0 then begin
    Printf.eprintf
      "cm-lint: --require-cmt: no .cmt files under %s (build first: dune build)\n"
      (String.concat " " roots);
    exit 2
  end;
  (match !json_out with
  | Some path ->
    let oc = open_out_bin path in
    output_string oc (Cm_analysis.Finding.list_to_json outcome.findings);
    close_out oc
  | None -> ());
  (match !baseline_out with
  | Some path ->
    let oc = open_out_bin path in
    output_string oc (Cm_analysis.Baseline.render outcome.findings);
    close_out oc;
    Printf.printf "cm-lint: baseline of %d finding(s) written to %s\n"
      (List.length outcome.findings) path
  | None -> ());
  let to_report =
    match !baseline_in with
    | None -> outcome.findings
    | Some path ->
      let verdict = Cm_analysis.Baseline.check ~baseline:(Cm_analysis.Baseline.load path) outcome.findings in
      List.iter
        (fun (key, allowed, have) ->
          Printf.eprintf
            "cm-lint: stale baseline entry (%d allowed, %d present): %s\n" allowed have key)
        verdict.stale;
      verdict.fresh
  in
  List.iter (fun f -> print_endline (Cm_analysis.Finding.to_string f)) to_report;
  if to_report <> [] || outcome.errors <> [] then begin
    Printf.eprintf "cm-lint: %d finding(s)%s in %d file(s), %d typed unit(s)\n"
      (List.length to_report)
      (if !baseline_in <> None then " beyond baseline" else "")
      outcome.files_scanned outcome.units_analyzed;
    exit 1
  end
  else if !baseline_out = None then
    Printf.printf "cm-lint: clean — %d file(s), %d typed unit(s)%s\n" outcome.files_scanned
      outcome.units_analyzed
      (match !baseline_in with
      | Some _ -> Printf.sprintf " (baseline absorbed %d)" (List.length outcome.findings)
      | None -> "")
