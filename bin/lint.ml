(* rats_lint driver: static determinism & hygiene analysis over the
   repo's OCaml sources, whole-program (cross-module taint, allow
   staleness). Exit status: 0 clean, 1 unsuppressed findings, 2 usage/IO
   error. See docs/LINTING.md for the rule catalogue. *)

let usage =
  "usage: lint.exe [--root DIR] [--json FILE] [--graph FILE] [--list-allows] \
   [--rules] [DIR ...]"

let () =
  let root = ref "." in
  let json_out = ref "" in
  let graph_out = ref "" in
  let list_allows = ref false in
  let show_rules = ref false in
  let dirs = ref [] in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR repo root to scan (default .)");
      ( "--json",
        Arg.Set_string json_out,
        "FILE also write the full report (findings, suppressed, allows) as \
         JSON" );
      ( "--graph",
        Arg.Set_string graph_out,
        "FILE write the module-level call graph as Graphviz DOT ('-' for \
         stdout)" );
      ( "--list-allows",
        Arg.Set list_allows,
        " list every suppression with its justification and exit" );
      ("--rules", Arg.Set show_rules, " print the rule catalogue and exit");
    ]
  in
  Arg.parse spec (fun d -> dirs := d :: !dirs) usage;
  if !show_rules then begin
    List.iter
      (fun r ->
        Printf.printf "%s %s: %s\n  %s\n" r.Rats_lint.Rule.id
          (Rats_lint.Rule.severity_to_string r.Rats_lint.Rule.severity)
          r.Rats_lint.Rule.title r.Rats_lint.Rule.rationale)
      Rats_lint.Rules.catalogue;
    exit 0
  end;
  let dirs =
    match List.rev !dirs with [] -> Rats_lint.Engine.default_dirs | ds -> ds
  in
  let report =
    try Rats_lint.Engine.lint_tree ~dirs ~root:!root ()
    with Sys_error msg ->
      prerr_endline ("lint: " ^ msg);
      exit 2
  in
  if !list_allows then begin
    print_string (Rats_lint.Engine.render_allows report);
    Printf.eprintf "rats_lint: %d suppression%s in %d files\n"
      (List.length report.allows)
      (if List.length report.allows = 1 then "" else "s")
      (List.length report.files);
    exit 0
  end;
  (* Artifacts are written whole, missing parent directories included. *)
  let write path contents =
    try
      Rats_obs.File.mkdir_p (Filename.dirname path);
      Rats_obs.File.write_atomic path contents
    with
    | Sys_error msg ->
        prerr_endline ("lint: " ^ msg);
        exit 2
    | Unix.Unix_error (e, _, arg) ->
        prerr_endline ("lint: " ^ arg ^ ": " ^ Unix.error_message e);
        exit 2
  in
  if !graph_out <> "" then begin
    let dot = Rats_lint.Callgraph.to_dot report.graph in
    if !graph_out = "-" then print_string dot else write !graph_out dot
  end;
  if !json_out <> "" then
    write !json_out
      (Rats_obs.Json.to_string (Rats_lint.Engine.to_json report) ^ "\n");
  print_string (Rats_lint.Engine.render report);
  Printf.eprintf "rats_lint: %d finding%s (%d suppressed) in %d files\n"
    (List.length report.findings)
    (if List.length report.findings = 1 then "" else "s")
    (List.length report.suppressed)
    (List.length report.files);
  exit (if report.findings = [] then 0 else 1)
