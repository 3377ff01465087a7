(* experiments: run the paper's evaluation suite and export the data.

   Examples:
     dune exec bin/experiments.exe -- --scale smoke
     dune exec bin/experiments.exe -- --cluster grelon --csv out.csv
     dune exec bin/experiments.exe -- --retries 2 --timeout 60 --resume *)

open Cmdliner
module Suite = Rats_daggen.Suite
module Exp = Rats_exp
module Runtime = Rats_runtime

let run scale cluster mindelta maxdelta minrho packing csv jobs retries timeout
    resume strict trace metrics =
  Common.with_obs trace metrics @@ fun () ->
  let delta = { Rats_core.Rats.mindelta; maxdelta } in
  let timecost = { Rats_core.Rats.minrho; packing } in
  let jobs =
    if jobs >= 1 then jobs else Rats_runtime.Pool.default_jobs ()
  in
  let scale_name =
    match scale with Suite.Smoke -> "smoke" | Suite.Paper -> "paper"
  in
  let journal =
    match Sys.getenv_opt "RATS_JOURNAL" with
    | Some "off" -> None
    | _ ->
        Some
          (Runtime.Journal.open_
             ~name:
               (Printf.sprintf "experiments-%s-%s" scale_name
                  cluster.Rats_platform.Cluster.name)
             ~resume ())
  in
  let retry = { Runtime.Retry.default with retries; timeout_s = timeout } in
  let exec = Runtime.Exec.of_env ~jobs ~retry ~strict ?journal () in
  (match journal with
  | Some j when resume ->
      Format.printf "(resuming: %d journaled results in %s)@."
        (Runtime.Journal.loaded j) (Runtime.Journal.path j)
  | _ -> ());
  let sweep =
    Exp.Runner.run_sweep ~delta ~timecost ~progress:true ~exec scale cluster
  in
  let results = sweep.Exp.Runner.results in
  Exp.Figures.fig2 Format.std_formatter results;
  Exp.Figures.fig3 Format.std_formatter results;
  (match csv with
  | None -> ()
  | Some path ->
      Exp.Figures.write_csv path results;
      Format.printf "CSV written to %s@." path);
  Exp.Runner.pp_failures Format.err_formatter sweep;
  Option.iter Runtime.Journal.close journal;
  Format.printf "%d/%d configurations done.@." (List.length results)
    sweep.Exp.Runner.total;
  if sweep.Exp.Runner.failed <> [] then exit 1

let scale_term =
  Arg.(
    value
    & opt (enum [ ("smoke", Suite.Smoke); ("paper", Suite.Paper) ]) Suite.Smoke
    & info [ "scale" ] ~docv:"SCALE"
        ~doc:"smoke (149 configurations) or paper (the full 557).")

let csv_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Write per-configuration results to $(docv).")

let jobs_term =
  Arg.(
    value
    & opt int 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Pool workers for the suite run (default: $(b,RATS_JOBS) or all \
           cores; 1 forces serial execution). Results are identical for \
           every value.")

let retries_term =
  Arg.(
    value
    & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Re-run a failing configuration up to $(docv) extra times \
           (exponential backoff) before recording it as failed.")

let timeout_term =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Per-configuration wall-clock budget (monotonic). An attempt that \
           exceeds it counts as a failure, subject to $(b,--retries).")

let resume_term =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Replay the results journaled by an interrupted run \
           (bench_results/.journal) and execute only the missing \
           configurations; the combined output is bit-identical to an \
           uninterrupted run. Without this flag the previous journal is \
           discarded.")

let strict_term =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Abort on the first configuration failure (fail fast) instead of \
           completing the sweep and reporting failures at the end.")

let cmd =
  Cmd.v
    (Cmd.info "experiments" ~doc:"Run the RATS evaluation suite")
    Term.(
      const run $ scale_term $ Common.cluster_term $ Common.mindelta_term
      $ Common.maxdelta_term $ Common.minrho_term $ Common.packing_term
      $ csv_term $ jobs_term $ retries_term $ timeout_term $ resume_term
      $ strict_term $ Common.trace_term $ Common.metrics_term)

let () = exit (Cmd.eval cmd)
