(* studio: render and check run artifacts.

   Four subcommands over the artifact formats the other binaries already
   write — no new formats, no external assets:

     report   one run's artifacts -> a single offline HTML report
     diff     A/B two BENCH_runtime.json files, text + optional HTML
     serve    the report page, reloaded on every request with the journal
              tail: a live monitor of a running sweep
     check    validate a --trace file and --metrics snapshot; exits 1 on
              the first violation (the machine end of make studio-smoke)

   Examples:
     dune exec bin/studio.exe -- report --bench BENCH_runtime.json \
       --trace trace.json --metrics metrics.json --out report.html
     dune exec bin/studio.exe -- diff old/BENCH_runtime.json BENCH_runtime.json
     dune exec bin/studio.exe -- serve --journal sweep.journal \
       --metrics metrics.json --port 8080
     dune exec bin/studio.exe -- check --trace trace.json \
       --metrics metrics.json --require-bench-counters *)

open Cmdliner
module Studio = Rats_studio

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Ok contents
  | exception Sys_error msg -> Error msg

let ( let* ) = Result.bind

(* --- report -------------------------------------------------------------- *)

let basename_caption path = Printf.sprintf "%s (embedded)" path

let run_report bench metrics trace workloads svgs title out =
  let result =
    let input, warnings = Studio.Page.load ~title ?bench ?metrics ?trace () in
    List.iter (Printf.eprintf "studio: warning: %s\n%!") warnings;
    let* workloads =
      List.fold_left
        (fun acc path ->
          let* acc = acc in
          let* contents = read_file path in
          Ok ((Filename.basename path, contents) :: acc))
        (Ok []) workloads
    in
    let* figures =
      List.fold_left
        (fun acc path ->
          let* acc = acc in
          let* contents = read_file path in
          Ok ((basename_caption path, contents) :: acc))
        (Ok []) svgs
    in
    Rats_obs.File.write_atomic out
      (Studio.Page.render
         {
           input with
           workloads = List.rev workloads;
           figures = List.rev figures;
         });
    Printf.printf "report written to %s\n" out;
    Ok ()
  in
  match result with
  | Ok () -> 0
  | Error msg ->
      Printf.eprintf "studio: %s\n" msg;
      1

let bench_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "bench" ] ~docv:"FILE"
        ~doc:"BENCH_runtime.json perf report to include.")

let metrics_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Metrics snapshot JSON to include (overrides the one embedded in \
           the bench report).")

let trace_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Chrome trace-event file to render as an inline timeline.")

let workload_term =
  Arg.(
    value & opt_all string []
    & info [ "workload" ] ~docv:"CSV"
        ~doc:
          "Workload comparison CSV to render as a table (repeatable); the \
           fairness and p99 columns are highlighted.")

let svg_in_term =
  Arg.(
    value & opt_all string []
    & info [ "svg" ] ~docv:"FILE"
        ~doc:"Pre-rendered SVG figure to embed verbatim (repeatable).")

let title_term default =
  Arg.(
    value & opt string default
    & info [ "title" ] ~docv:"TEXT" ~doc:"Page title.")

let out_term default =
  Arg.(
    value & opt string default
    & info [ "out" ] ~docv:"FILE" ~doc:"Output HTML file.")

let report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render one run's artifacts into a single self-contained HTML \
          report (inline SVG figures, no external fetches).")
    Term.(
      const run_report $ bench_term $ metrics_term $ trace_term
      $ workload_term $ svg_in_term
      $ title_term "RATS run report"
      $ out_term "report.html")

(* --- diff ---------------------------------------------------------------- *)

let run_diff a b threshold out =
  let result =
    let* ta = Rats_runtime.Report.load a in
    let* tb = Rats_runtime.Report.load b in
    print_string (Studio.Diff.to_text ~threshold ta tb);
    (match out with
    | None -> ()
    | Some path ->
        Rats_obs.File.write_atomic path (Studio.Diff.to_html ~threshold ta tb);
        Printf.printf "\nhtml diff written to %s\n" path);
    Ok ()
  in
  match result with
  | Ok () -> 0
  | Error msg ->
      Printf.eprintf "studio: %s\n" msg;
      1

let a_term =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"A" ~doc:"Baseline BENCH_runtime.json.")

let b_term =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"B" ~doc:"Candidate BENCH_runtime.json.")

let threshold_term =
  Arg.(
    value & opt float 5.
    & info [ "threshold" ] ~docv:"PCT"
        ~doc:
          "Wall-time delta (percent) beyond which a target is flagged as a \
           regression or improvement.")

let diff_cmd =
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two BENCH_runtime.json files: per-target wall-time \
          deltas and changed counters, with warnings when the runs are \
          not comparable (different scale, schema, or cache warmth).")
    Term.(
      const run_diff $ a_term $ b_term $ threshold_term
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out" ] ~docv:"FILE"
              ~doc:"Also write the diff as a standalone HTML page."))

(* --- serve --------------------------------------------------------------- *)

(* Every request reloads the artifacts, so the page follows the sweep. *)
let served_page ~title ?bench ?metrics ?journal refresh_s =
  let input, warnings = Studio.Page.load ~title ?bench ?metrics () in
  let journal =
    Option.map (fun p -> (p, Rats_runtime.Journal.read_tail p)) journal
  in
  Studio.Page.render
    { input with served = Some { refresh_s; journal; warnings } }

let run_serve journal metrics bench port refresh max_requests title =
  match
    Studio.Httpd.serve ~port ?max_requests
      ~on_listen:(fun bound ->
        Printf.printf "studio: serving http://127.0.0.1:%d/ (ctrl-C to stop)\n%!"
          bound)
      (fun _path -> served_page ~title ?bench ?metrics ?journal refresh)
  with
  | () -> 0
  | exception Unix.Unix_error (err, _, _) ->
      Printf.eprintf "studio: serve: %s\n" (Unix.error_message err);
      1

let journal_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:"Resumable sweep journal to tail (read-only, torn-tail safe).")

let port_term =
  Arg.(
    value & opt int 8080
    & info [ "port" ] ~docv:"PORT"
        ~doc:"TCP port to listen on (0 lets the kernel pick).")

let refresh_term =
  Arg.(
    value & opt int 2
    & info [ "refresh" ] ~docv:"SECONDS"
        ~doc:"Auto-refresh interval baked into the served page.")

let max_requests_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-requests" ] ~docv:"N"
        ~doc:"Exit after answering $(docv) requests (smoke tests).")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the report page as a live auto-refreshing monitor of a \
          running sweep over a loopback HTTP socket, re-reading the \
          journal, metrics snapshot, and bench report on every request.")
    Term.(
      const run_serve $ journal_term $ metrics_term $ bench_term $ port_term
      $ refresh_term $ max_requests_term
      $ title_term "RATS live sweep monitor")

(* --- check ---------------------------------------------------------------- *)

let run_check trace metrics require_bench =
  let result =
    let* events = Studio.Check.trace trace in
    Printf.printf "%s: %d events ok\n" trace (List.length events);
    match metrics with
    | None when require_bench ->
        Error "--require-bench-counters needs --metrics"
    | None -> Ok ()
    | Some path ->
        let* snapshot = Rats_obs.Snapshot.of_file path in
        Printf.printf "%s: well-formed snapshot\n" path;
        if require_bench then begin
          let* () = Studio.Check.bench_counters snapshot in
          Printf.printf "%s: bench counters ok\n" path;
          Ok ()
        end
        else Ok ()
  in
  match result with
  | Ok () -> 0
  | Error msg ->
      Printf.eprintf "studio: check: %s\n" msg;
      1

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate the files a traced run writes: the Chrome trace-event \
          file and, optionally, the metrics snapshot. Exits 1 on the first \
          violation.")
    Term.(
      const run_check
      $ Arg.(
          required
          & opt (some string) None
          & info [ "trace" ] ~docv:"FILE"
              ~doc:"Chrome trace-event file to validate.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "metrics" ] ~docv:"FILE"
              ~doc:"Metrics JSON snapshot to validate.")
      $ Arg.(
          value & flag
          & info [ "require-bench-counters" ]
              ~doc:
                "Fail unless the snapshot shows the counters a bench run \
                 must move: simulator events, cache hits/misses with \
                 read/write latency histograms, pool task/steal counters, \
                 and per-strategy pack/stretch counters with eliminated \
                 redistributions."))

let cmd =
  Cmd.group
    (Cmd.info "studio"
       ~doc:"Render and check run artifacts")
    [ report_cmd; diff_cmd; serve_cmd; check_cmd ]

let () = exit (Cmd.eval' cmd)
