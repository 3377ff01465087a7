(* Tests for rats_lint: every fixture violation is reported with the
   right file:line (golden output), suppressions work and are audited,
   the JSON report parses back, and — the actual point of the tool —
   the repo's own tree lints clean. *)

module Engine = Rats_lint.Engine
module Rules = Rats_lint.Rules
module Finding = Rats_lint.Finding
module Allow = Rats_lint.Allow
module Callgraph = Rats_lint.Callgraph
module Json = Rats_obs.Json

let check = Alcotest.check

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* dune runtest runs in _build/default/test where the (source_tree) dep
   lands; dune exec from the repo root sees it under test/. *)
let fixture_root =
  if Sys.file_exists "lint_fixtures" then "lint_fixtures"
  else "test/lint_fixtures"

let fixture_report = lazy (Engine.lint_tree ~dirs:[ "lib" ] ~root:fixture_root ())

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The repo root is the nearest ancestor holding dune-project; under dune
   runtest that is _build/default, which mirrors every source file. *)
let repo_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())

let rule_ids findings =
  List.sort_uniq String.compare
    (List.map (fun f -> f.Finding.rule_id) findings)

let test_golden () =
  let expected = read_file (Filename.concat fixture_root "expected.txt") in
  check Alcotest.string "fixture findings (golden)" expected
    (Engine.render (Lazy.force fixture_report))

let test_every_rule_fires () =
  let r = Lazy.force fixture_report in
  check
    Alcotest.(list string)
    "one unsuppressed positive per rule"
    [ "A001"; "A002"; "D001"; "D002"; "D003"; "D004"; "D005"; "E001"; "H001";
      "H002"; "R001"; "R002" ]
    (rule_ids r.findings)

let test_every_rule_suppressible () =
  let r = Lazy.force fixture_report in
  check
    Alcotest.(list string)
    "one suppressed case per catalogue rule"
    [ "A002"; "D001"; "D002"; "D003"; "D004"; "D005"; "H001"; "H002"; "R001";
      "R002" ]
    (rule_ids r.suppressed)

let test_unjustified_allow_is_listed () =
  let r = Lazy.force fixture_report in
  let unjustified =
    List.filter (fun (a : Allow.t) -> a.reason = None) r.allows
  in
  check Alcotest.int "exactly the A001 fixture lacks a reason" 1
    (List.length unjustified);
  (* ... and the A001 finding anchors to that allow's line. *)
  let a = List.hd unjustified in
  check Alcotest.bool "A001 finding on the allow's line" true
    (List.exists
       (fun f ->
         f.Finding.rule_id = "A001" && f.Finding.file = a.Allow.file
         && f.Finding.line = a.Allow.line)
       r.findings)

let test_json_parse_back () =
  let r = Lazy.force fixture_report in
  match Json.parse (Json.to_string (Engine.to_json r)) with
  | Error e -> Alcotest.failf "report JSON does not parse: %s" e
  | Ok j ->
      let len key =
        match Option.bind (Json.member key j) Json.to_list with
        | Some l -> List.length l
        | None -> Alcotest.failf "missing %s array" key
      in
      check Alcotest.int "findings round-trip" (List.length r.findings)
        (len "findings");
      check Alcotest.int "suppressed round-trip" (List.length r.suppressed)
        (len "suppressed");
      check Alcotest.int "allows round-trip" (List.length r.allows)
        (len "allows");
      check
        Alcotest.(option int)
        "files_scanned round-trip"
        (Some (List.length r.files))
        (Option.bind (Json.member "files_scanned" j) Json.to_int)

let test_catalogue_sorted_and_scoped () =
  let ids = List.map (fun r -> r.Rats_lint.Rule.id) Rules.catalogue in
  check Alcotest.(list string) "catalogue is id-sorted"
    (List.sort String.compare ids) ids;
  (* D002 must not fire inside the observability layer itself. *)
  let d002 = Option.get (Rules.by_id "D002") in
  check Alcotest.bool "D002 exempts lib/obs" false
    (Rats_lint.Rule.applies d002 ~path:"lib/obs/instr.ml");
  check Alcotest.bool "D002 covers lib/runtime" true
    (Rats_lint.Rule.applies d002 ~path:"lib/runtime/progress.ml")

(* D005's whole point: the frontier file is clean on its own; the
   whole-program pass sees the two-modules-away entropy draw, and its
   finding carries the full call path. *)
let test_d005_needs_whole_program () =
  let r = Lazy.force fixture_report in
  match List.filter (fun f -> f.Finding.rule_id = "D005") r.findings with
  | [ f ] ->
      check Alcotest.string "frontier file" "lib/sim/d005_sampler.ml" f.file;
      check Alcotest.bool "path walks both intermediate hops" true
        (contains ~sub:"Sampling.sample → Entropy_pool.draw → Random.float"
           f.message);
      check Alcotest.bool "hop count rendered" true
        (contains ~sub:"(3 hops)" f.message)
  | fs -> Alcotest.failf "expected exactly one D005 finding, got %d" (List.length fs)

let test_a002_stale_allow () =
  let r = Lazy.force fixture_report in
  check Alcotest.bool "stale allow reported" true
    (List.exists
       (fun f ->
         f.Finding.rule_id = "A002"
         && f.Finding.file = "lib/exp/a002_stale.ml"
         && f.Finding.line = 6)
       r.findings);
  (* An allow naming A002 itself may keep a deliberately stale entry. *)
  check Alcotest.bool "self-allowed staleness lands in suppressed" true
    (List.exists
       (fun f ->
         f.Finding.rule_id = "A002"
         && f.Finding.file = "lib/exp/a002_stale.ml"
         && f.Finding.line = 8)
       r.suppressed)

let test_graph_dot () =
  let dot = Callgraph.to_dot (Lazy.force fixture_report).Engine.graph in
  check Alcotest.bool "DOT header" true
    (contains ~sub:"digraph rats_callgraph" dot);
  check Alcotest.bool "cross-module taint edge present" true
    (contains ~sub:"\"Rats_sim.D005_sampler\" -> \"Rats_util.Sampling\"" dot)

(* Lints one source file, [lib/NAME], in a fresh temporary tree. *)
let lint_one_file name src =
  let root = Filename.temp_dir "rats_lint" "" in
  let dir = Filename.concat root "lib" in
  let file = Filename.concat dir name in
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove file;
      Sys.rmdir dir;
      Sys.rmdir root)
    (fun () ->
      Out_channel.with_open_bin file (fun oc -> output_string oc src);
      Engine.lint_tree ~dirs:[ "lib" ] ~root ())

let where fs = List.map (fun f -> (f.Finding.rule_id, f.Finding.line)) fs

(* An allow covers its own line only: the same hazard one line further
   down, even inside the same expression, is still reported. *)
let test_allow_covers_own_line () =
  let r =
    lint_one_file "two_clocks.ml"
      "let pair () =\n\
      \  ( Unix.gettimeofday (), (* lint: allow D002 — test: this line only *)\n\
      \    Unix.gettimeofday () )\n"
  in
  check
    Alcotest.(list (pair string int))
    "line 3 still reported" [ ("D002", 3) ] (where r.findings);
  check
    Alcotest.(list (pair string int))
    "line 2 suppressed" [ ("D002", 2) ] (where r.suppressed)

(* Allows come from comments only: the marker inside a string literal
   suppresses nothing. *)
let test_allow_in_string_ignored () =
  let r =
    lint_one_file "marker_string.ml"
      "let stamp () =\n\
      \  (\"(* lint: allow D002 — not a comment *)\", Unix.gettimeofday ())\n"
  in
  check
    Alcotest.(list (pair string int))
    "D002 still reported" [ ("D002", 2) ] (where r.findings);
  check Alcotest.int "no allow read" 0 (List.length r.allows)

let test_repo_tree_clean () =
  match repo_root () with
  | None -> Alcotest.fail "cannot locate repo root (no dune-project upward)"
  | Some root ->
      let r = Engine.lint_tree ~root () in
      check Alcotest.bool "scanned a real tree" true
        (List.length r.files > 50);
      check
        Alcotest.(list string)
        "repo tree lints clean" []
        (List.map Finding.to_human r.findings)

let test_repo_allows_justified () =
  match repo_root () with
  | None -> Alcotest.fail "cannot locate repo root (no dune-project upward)"
  | Some root ->
      let r = Engine.lint_tree ~root () in
      check
        Alcotest.(list string)
        "every repo suppression carries a justification" []
        (List.filter_map
           (fun (a : Allow.t) ->
             if a.reason = None then Some (Allow.to_human a) else None)
           r.allows)

let () =
  Alcotest.run "rats_lint"
    [
      ( "fixtures",
        [
          Alcotest.test_case "golden findings" `Quick test_golden;
          Alcotest.test_case "every rule fires" `Quick test_every_rule_fires;
          Alcotest.test_case "every rule suppressible" `Quick
            test_every_rule_suppressible;
          Alcotest.test_case "unjustified allow reported" `Quick
            test_unjustified_allow_is_listed;
          Alcotest.test_case "json parse-back" `Quick test_json_parse_back;
          Alcotest.test_case "allow covers its own line only" `Quick
            test_allow_covers_own_line;
          Alcotest.test_case "allow in a string ignored" `Quick
            test_allow_in_string_ignored;
        ] );
      ( "catalogue",
        [
          Alcotest.test_case "sorted and scoped" `Quick
            test_catalogue_sorted_and_scoped;
        ] );
      ( "whole-program",
        [
          Alcotest.test_case "d005 needs the whole program" `Quick
            test_d005_needs_whole_program;
          Alcotest.test_case "a002 stale allow" `Quick test_a002_stale_allow;
          Alcotest.test_case "call-graph dot" `Quick test_graph_dot;
        ] );
      ( "repo",
        [
          Alcotest.test_case "tree lints clean" `Quick test_repo_tree_clean;
          Alcotest.test_case "allows justified" `Quick
            test_repo_allows_justified;
        ] );
    ]
