(* Orchestrates the typed passes over .cmt files, suppression filtering
   and the suppression audit, and sorts the result.  Used by
   bin/lint.ml and exercised directly by test/test_analysis.ml. *)

type config = {
  roots : string list;  (* directories: .cmt files are found beneath *)
  source_root : string;  (* prefix tried when a compiler path does not resolve *)
  hot : Hot_alloc.spec list;
}

let default_config roots = { roots; source_root = "."; hot = Hot_alloc.default }

type outcome = {
  findings : Finding.t list;  (* unsuppressed, sorted *)
  units_analyzed : int;  (* compilation units seen by the typed passes *)
  classified : (string * string) list;  (* domain-safety ownership classes *)
  errors : string list;  (* unreadable cmts *)
}

let run config =
  let suppress_cache : (string, Suppress.t) Hashtbl.t = Hashtbl.create 64 in
  let suppressions_of file =
    match Hashtbl.find_opt suppress_cache file with
    | Some s -> s
    | None ->
      let s = Suppress.load ~source_root:config.source_root file in
      Hashtbl.add suppress_cache file s;
      s
  in
  let idx = Cmt_index.load ~roots:config.roots in
  let vetted ~file ~line =
    Suppress.suppressed (suppressions_of file) ~line ~rule:Domain_safety.rule
  in
  let ds = Domain_safety.run idx ~vetted in
  let raw = ds.findings @ Hot_alloc.run idx ~hot:config.hot () @ Typed_rules.run idx in
  (* The audit covers every analyzed unit's source, plus any file a
     finding names. *)
  let audited_files =
    List.sort_uniq String.compare
      (List.map (fun (ui : Cmt_index.unit_info) -> ui.ui_source) idx.units
      @ List.map (fun (f : Finding.t) -> f.file) raw)
  in
  let audit_findings = List.concat_map (fun f -> Suppress.audit (suppressions_of f)) audited_files in
  let surviving =
    List.filter
      (fun (f : Finding.t) ->
        not (Suppress.suppressed (suppressions_of f.file) ~line:f.line ~rule:f.rule))
      (raw @ audit_findings)
  in
  {
    findings = Finding.sort surviving;
    units_analyzed = List.length idx.units;
    classified = ds.classified;
    errors = idx.errors;
  }
