(* Analyzer tests (lib/analysis), driven over the compiled negative
   fixtures in test/typed_fixtures: the exact findings of every
   identifier rule, seeded shard-escape violations, call-chain
   witnesses, module-alias evasion, the suppression machinery (on-line /
   line-above / allow-file / misuse audit), the hot-alloc pass under a
   custom hot-set, stable output order, and lint.json shape. *)

open Cm_analysis

let fixture_dir = "test/typed_fixtures"

(* dune runs tests in _build/default/test; the fixture library's .cmt
   files and copied sources live one level up.  Settle on the build
   root so the compiler-reported paths ("test/typed_fixtures/...")
   resolve directly. *)
let () =
  let rec go n =
    if Sys.file_exists (Filename.concat fixture_dir "fixture_store.ml") then ()
    else if n = 0 then failwith "cannot locate test/typed_fixtures from the test cwd"
    else begin
      Sys.chdir "..";
      go (n - 1)
    end
  in
  go 4

(* The fixture modules are not in the real hot set; the pass is
   exercised with a hot-set naming the spin_* functions (and
   deliberately not cold_pair or cold_ratio), spin_builder as a
   builder. *)
let hot_spec =
  [
    {
      Hot_alloc.s_unit = "Lint_fixtures.Fixture_hot";
      s_names =
        [ "spin_closure"; "spin_pair"; "spin_floats"; "spin_partial"; "spin_take";
          "spin_drive"; "spin_fn_read"; "spin_ref_local"; "spin_ref_escape" ];
      s_builders = [ "spin_builder" ];
    };
    {
      Hot_alloc.s_unit = "Lint_fixtures.Fixture_boxed";
      s_names =
        [ "spin_ratio"; "spin_mix"; "spin_word"; "spin_native"; "spin_scaled"; "spin_wide";
          "spin_fun"; "spin_count" ];
      s_builders = [];
    };
  ]

let config = { (Driver.default_config [ fixture_dir ]) with Driver.hot = hot_spec }
let outcome = lazy (Driver.run config)
let findings () = (Lazy.force outcome).Driver.findings

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let find_all ?file ?rule ?detail ?msg ?context fs =
  List.filter
    (fun (f : Finding.t) ->
      (match file with Some b -> Filename.basename f.Finding.file = b | None -> true)
      && (match rule with Some r -> f.Finding.rule = r | None -> true)
      && (match detail with Some d -> f.Finding.detail = d | None -> true)
      && (match msg with Some m -> contains f.Finding.msg m | None -> true)
      && match context with Some c -> contains f.Finding.context c | None -> true)
    fs

let check_found name ?file ?rule ?detail ?msg ?context fs =
  Alcotest.(check bool) name true (find_all ?file ?rule ?detail ?msg ?context fs <> [])

let check_absent name ?file ?rule ?detail ?msg ?context fs =
  Alcotest.(check bool) name false (find_all ?file ?rule ?detail ?msg ?context fs <> [])

(* ------------------------------------------------------------------ *)
(* Seeded module-init-time roots                                      *)
(* ------------------------------------------------------------------ *)

let test_seeded_roots () =
  let fs = findings () in
  List.iter
    (fun (ctx, what) ->
      check_found
        (Printf.sprintf "%s reported escaping" ctx)
        ~file:"fixture_store.ml" ~rule:"domain-safety" ~detail:"escaping" ~context:ctx
        ~msg:what fs)
    [
      ("Fixture_store.hits", "module-init-time ref");
      ("Fixture_store.table", "module-init-time Hashtbl.create");
      ("Fixture_store.memo_lookup", "module-init-time Hashtbl.create");
      ("Fixture_store.weights", "module-init-time array literal");
    ];
  (* safe negatives: atomic / DLS / mutex / guarded record *)
  List.iter
    (fun ctx ->
      check_absent
        (Printf.sprintf "%s not reported" ctx)
        ~rule:"domain-safety" ~context:ctx fs)
    [
      "Fixture_store.seq"; "Fixture_store.scratch_key"; "Fixture_store.lock";
      "Fixture_store.shared_counter";
    ]

let test_ownership_classes () =
  let classified = (Lazy.force outcome).Driver.classified in
  List.iter
    (fun (canon, cls) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s classified %s" canon cls)
        true
        (List.mem ("Lint_fixtures.Fixture_store." ^ canon, cls) classified))
    [
      ("hits", "escaping"); ("seq", "atomic"); ("scratch_key", "dls"); ("lock", "sync");
      ("shared_counter", "mutex-guarded");
    ]

(* ------------------------------------------------------------------ *)
(* Cross-module escape with call-chain witnesses                      *)
(* ------------------------------------------------------------------ *)

let test_getter_witness () =
  let fs = findings () in
  (match
     find_all ~file:"fixture_getter.ml" ~rule:"domain-safety" ~detail:"escaping-getter"
       ~context:"Fixture_getter.lookup" fs
   with
  | [ f ] ->
    Alcotest.(check (list string))
      "lookup witness chain"
      [
        "Lint_fixtures.Fixture_getter.lookup"; "Lint_fixtures.Fixture_getter.raw_table";
        "Lint_fixtures.Fixture_store.table";
      ]
      f.Finding.witness
  | fs' -> Alcotest.failf "expected exactly one lookup escaping-getter, got %d" (List.length fs'));
  check_found "raw_table escaping-getter" ~file:"fixture_getter.ml" ~rule:"domain-safety"
    ~detail:"escaping-getter" ~context:"Fixture_getter.raw_table" fs;
  (* the owner's own API over its state is encapsulation, not escape *)
  check_absent "owner API not an escape" ~rule:"domain-safety" ~context:"Fixture_store.find_name"
    fs;
  check_absent "owner mutator not an escape" ~rule:"domain-safety" ~context:"Fixture_store.bump"
    fs

(* ------------------------------------------------------------------ *)
(* Identifier rules: exact findings, module-alias evasion             *)
(* ------------------------------------------------------------------ *)

(* Every (line, rule) fixture_rules.ml reports; the four toplevel
   ref/Hashtbl roots are domain-safety findings and the toplevel
   Atomic.make is global-state. *)
let rules_expected =
  [
    (5, "determinism"); (7, "determinism"); (9, "determinism"); (11, "determinism");
    (11, "domain-safety"); (13, "hashtbl-order"); (13, "printf"); (15, "hashtbl-order");
    (17, "closure-compare"); (19, "printf"); (21, "poly-compare"); (23, "poly-compare");
    (28, "raw-send"); (30, "raw-send"); (33, "raw-send"); (43, "domain-safety");
    (45, "domain-safety"); (47, "global-state"); (50, "domain-safety");
  ]

let test_rules_exact () =
  let got =
    List.map
      (fun (f : Finding.t) -> (f.Finding.line, f.Finding.rule))
      (find_all ~file:"fixture_rules.ml" (findings ()))
  in
  Alcotest.(check (list (pair int string))) "fixture_rules.ml (line, rule) set" rules_expected got;
  (* the _ok_* and _allowed* bindings: applied compare, local state and
     the four allow comments *)
  List.iter
    (fun line ->
      Alcotest.(check (list string))
        (Printf.sprintf "line %d reports nothing" line)
        []
        (List.filter_map (fun (l, r) -> if l = line then Some r else None) got))
    [ 26; 35; 37; 39; 54; 56 ]

let test_alias_evasion () =
  check_found "typed pass sees through the alias" ~file:"fixture_evade.ml" ~rule:"raw-send"
    ~msg:"Cm_machine.Network.send" (findings ())

(* ------------------------------------------------------------------ *)
(* Suppression machinery                                              *)
(* ------------------------------------------------------------------ *)

let test_suppressions () =
  let fs = findings () in
  check_absent "on-line comment suppresses" ~rule:"domain-safety" ~context:"on_line" fs;
  check_absent "line-above comment suppresses" ~rule:"domain-safety" ~context:"line_above" fs;
  check_absent "comment above the creation in a binding's body suppresses" ~rule:"domain-safety"
    ~context:"body_vetted" fs;
  check_absent "allow-file suppresses the whole file" ~file:"fixture_allowfile.ml"
    ~rule:"domain-safety" fs;
  (* allow-file names only domain-safety: other rules still fire there *)
  check_found "allow-file is per-rule" ~file:"fixture_allowfile.ml" ~rule:"global-state" fs

let test_suppression_audit () =
  let fs = findings () in
  check_found "unknown rule is a finding, not a no-op" ~file:"fixture_suppress.ml"
    ~rule:"bad-suppress" ~detail:"unknown-rule" ~msg:"no-such-rule" fs;
  check_found "justified rule without justification is a finding" ~file:"fixture_suppress.ml"
    ~rule:"bad-suppress" ~detail:"missing-justification" fs;
  check_found "an unjustified allow does not suppress" ~file:"fixture_suppress.ml"
    ~rule:"domain-safety" ~detail:"escaping" ~context:"no_why" fs

(* ------------------------------------------------------------------ *)
(* Hot-path allocation pass                                           *)
(* ------------------------------------------------------------------ *)

let test_hot_alloc () =
  let fs = findings () in
  check_found "closure in hot path" ~file:"fixture_hot.ml" ~rule:"hot-alloc" ~detail:"closure"
    ~context:"spin_closure" fs;
  check_found "tuple in hot path" ~file:"fixture_hot.ml" ~rule:"hot-alloc" ~detail:"tuple"
    ~context:"spin_pair" fs;
  check_found "boxed float in hot path" ~file:"fixture_hot.ml" ~rule:"hot-alloc"
    ~detail:"boxed-float" ~context:"spin_floats" fs;
  check_found "partial application in hot path" ~file:"fixture_hot.ml" ~rule:"hot-alloc"
    ~detail:"partial-apply" ~context:"spin_partial" fs;
  check_absent "identical allocation outside the hot set" ~rule:"hot-alloc" ~context:"cold_pair"
    fs;
  (* runtime-arity, not type-arity: reading a stored closure out (and
     fully applying what a 1-ary callee returns) is not a partial
     application even though the callee's result type ends in arrows *)
  check_absent "closure read from a record slot" ~rule:"hot-alloc" ~detail:"partial-apply"
    ~context:"spin_take" fs;
  check_absent "full application through a 1-ary reader" ~rule:"hot-alloc"
    ~detail:"partial-apply" ~context:"spin_drive" fs;
  check_absent "closure indexed out of an array" ~rule:"hot-alloc" ~detail:"partial-apply"
    ~context:"spin_fn_read" fs;
  (* a ref is a heap cell unless the compiler keeps it in a register *)
  check_found "escaping ref in hot path" ~file:"fixture_hot.ml" ~rule:"hot-alloc" ~detail:"ref"
    ~context:"spin_ref_escape" fs;
  check_absent "register ref not flagged" ~rule:"hot-alloc" ~context:"spin_ref_local" fs;
  (* a builder's own closures and set-up run once per construction;
     what the built closures do per call is checked *)
  check_absent "closures a builder builds" ~rule:"hot-alloc" ~detail:"closure"
    ~context:"spin_builder" fs;
  check_absent "builder set-up" ~rule:"hot-alloc" ~detail:"array" ~context:"spin_builder" fs;
  check_found "allocation inside a built closure" ~file:"fixture_hot.ml" ~rule:"hot-alloc"
    ~detail:"tuple" ~context:"spin_builder" fs

(* A hot function returning a float or a boxed integer allocates the
   result at every call that is not inlined, although its body holds no
   allocation the expression walk can see; only [@inline] or
   [@inline always] clears it. *)
let test_hot_alloc_boxed_return () =
  let fs = findings () in
  List.iter
    (fun (name, ty) ->
      check_found
        (Printf.sprintf "%s returning %s reported" name ty)
        ~file:"fixture_boxed.ml" ~rule:"hot-alloc" ~detail:"boxed-return"
        ~context:("Fixture_boxed." ^ name) ~msg:("returns " ^ ty) fs)
    [
      ("spin_ratio", "float"); ("spin_mix", "int64"); ("spin_word", "Int32.t");
      ("spin_native", "nativeint");
    ];
  List.iter
    (fun name ->
      check_absent
        (Printf.sprintf "%s not reported" name)
        ~rule:"hot-alloc" ~detail:"boxed-return" ~context:("Fixture_boxed." ^ name) fs)
    [ "spin_scaled"; "spin_wide"; "spin_fun"; "spin_count"; "cold_ratio" ]

(* A hot set naming a binding that does not exist (deleted or renamed)
   must be reported, not silently ignored: otherwise the function falls
   out of the zero-allocation floor unnoticed.  The same goes for a unit
   of an indexed library that is gone.  Units of libraries outside the
   linted roots are not flagged. *)
let test_hot_alloc_stale_names () =
  check_absent "every declared fixture name is bound" ~rule:"hot-alloc" ~detail:"stale-name"
    (findings ());
  let stale_hot =
    hot_spec
    @ [
        { Hot_alloc.s_unit = "Lint_fixtures.Fixture_hot"; s_names = [ "spin_closure" ];
          s_builders = [ "spin_gone" ] };
        { Hot_alloc.s_unit = "Lint_fixtures.Fixture_gone"; s_names = [ "spin" ]; s_builders = [] };
        { Hot_alloc.s_unit = "Cm_elsewhere.Unit"; s_names = [ "spin" ]; s_builders = [] };
      ]
  in
  let fs = (Driver.run { config with Driver.hot = stale_hot }).Driver.findings in
  (match find_all ~rule:"hot-alloc" ~detail:"stale-name" ~context:"Fixture_hot" fs with
  | [ f ] ->
    Alcotest.(check string) "reported in the unit's source" "fixture_hot.ml"
      (Filename.basename f.Finding.file);
    Alcotest.(check bool) "names the missing binding" true (contains f.Finding.msg "spin_gone");
    Alcotest.(check bool) "bound names are not stale" false (contains f.Finding.msg "spin_closure")
  | fs' -> Alcotest.failf "expected one stale-name finding for Fixture_hot, got %d" (List.length fs'));
  check_found "missing unit of an indexed library" ~file:"fixture_gone.ml" ~rule:"hot-alloc"
    ~detail:"stale-name" ~context:"Lint_fixtures.Fixture_gone" fs;
  check_absent "library outside the roots" ~rule:"hot-alloc" ~detail:"stale-name"
    ~context:"Cm_elsewhere" fs

(* ------------------------------------------------------------------ *)
(* Dead exports                                                       *)
(* ------------------------------------------------------------------ *)

let dead_lines fs = String.concat "\n" (List.map Finding.to_string fs)

(* Fixture_export exports [used] (named by Fixture_export_use),
   [Infix.( let+ )] (used only as a letop) and [unused] (called only by
   its own unit): exactly the last is dead. *)
let test_dead_export_fixture () =
  let fs = Dead_export.run ~skip:[] ~exports:[ fixture_dir ] ~users:[ fixture_dir ] () in
  Alcotest.(check (list string))
    "only the unused export" [ "Lint_fixtures.Fixture_export.unused" ]
    (List.map (fun (f : Finding.t) -> f.Finding.context) fs);
  Alcotest.(check string) "finding line"
    "test/typed_fixtures/fixture_export.mli:6: dead-export: Lint_fixtures.Fixture_export.unused"
    (dead_lines fs)

(* Every value the simulation libraries' interfaces export has a user in
   another unit of lib/, bin/, perfbench/, examples/ or test/. *)
let test_dead_export_tree () =
  match
    Dead_export.run ~exports:Dead_export.export_roots ~users:Dead_export.user_roots ()
  with
  | [] -> ()
  | fs -> Alcotest.failf "%d dead exports:\n%s" (List.length fs) (dead_lines fs)

(* ------------------------------------------------------------------ *)
(* Output order, JSON                                                 *)
(* ------------------------------------------------------------------ *)

let test_sorted () =
  let fs = findings () in
  Alcotest.(check bool) "some findings" true (fs <> []);
  let rec ordered = function
    | a :: (b :: _ as rest) -> Finding.compare a b < 0 && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly sorted by (file, line, rule, msg)" true (ordered fs)

let test_json () =
  let js = Finding.list_to_json (findings ()) in
  List.iter
    (fun frag ->
      Alcotest.(check bool) (Printf.sprintf "json contains %s" frag) true (contains js frag))
    [
      "\"rule\":\"domain-safety\"";
      "\"class\":\"escaping-getter\"";
      "\"class\":\"escaping\"";
      "\"witness\":[\"Lint_fixtures.Fixture_getter.lookup\",\"Lint_fixtures.Fixture_getter.raw_table\",\"Lint_fixtures.Fixture_store.table\"]";
      "\"rule\":\"hot-alloc\"";
    ]

let () =
  Alcotest.run "analysis"
    [
      ( "domain-safety",
        [
          Alcotest.test_case "seeded roots" `Quick test_seeded_roots;
          Alcotest.test_case "ownership classes" `Quick test_ownership_classes;
          Alcotest.test_case "getter witness chains" `Quick test_getter_witness;
        ] );
      ( "rules",
        [
          Alcotest.test_case "exact fixture findings" `Quick test_rules_exact;
          Alcotest.test_case "module-alias evasion" `Quick test_alias_evasion;
        ] );
      ( "suppressions",
        [
          Alcotest.test_case "escape hatches" `Quick test_suppressions;
          Alcotest.test_case "misuse audit" `Quick test_suppression_audit;
        ] );
      ( "hot-alloc",
        [
          Alcotest.test_case "custom hot-set" `Quick test_hot_alloc;
          Alcotest.test_case "boxed numeric return" `Quick test_hot_alloc_boxed_return;
          Alcotest.test_case "stale hot-set names" `Quick test_hot_alloc_stale_names;
        ] );
      ( "dead-export",
        [
          Alcotest.test_case "fixture" `Quick test_dead_export_fixture;
          Alcotest.test_case "library surface" `Quick test_dead_export_tree;
        ] );
      ( "output",
        [
          Alcotest.test_case "stable sort" `Quick test_sorted;
          Alcotest.test_case "lint.json shape" `Quick test_json;
        ] );
    ]
