(* rats_run: schedule one application on one cluster and report makespans.

   Examples:
     dune exec bin/rats_run.exe -- --kind fft --fft-k 8 --cluster grelon
     dune exec bin/rats_run.exe -- --algo delta --mindelta -0.25 --maxdelta 1
     dune exec bin/rats_run.exe -- --algo all --gantt *)

open Cmdliner
module Common = Rats_cli.Common
module Suite = Rats_daggen.Suite
module Core = Rats_core
module Procset = Rats_util.Procset

let strategies algo mindelta maxdelta minrho packing =
  let delta = Core.Rats.Delta { mindelta; maxdelta } in
  let timecost = Core.Rats.Timecost { minrho; packing } in
  match algo with
  | `Hcpa -> [ Core.Rats.Baseline ]
  | `Delta -> [ delta ]
  | `Timecost -> [ timecost ]
  | `All -> [ Core.Rats.Baseline; delta; timecost ]

let report problem strategy alloc gantt svg =
  let outcome = Core.Algorithms.run ~alloc problem strategy in
  let sched = outcome.Core.Algorithms.schedule in
  let sim = outcome.Core.Algorithms.simulated in
  (match svg with
  | None -> ()
  | Some prefix ->
      let path =
        Printf.sprintf "%s-%s.svg" prefix (Core.Rats.strategy_name strategy)
      in
      Rats_viz.Gantt.save sched sim
        ~title:
          (Printf.sprintf "%s (simulated makespan %.2fs)"
             (Core.Rats.strategy_name strategy)
             sim.Core.Evaluate.makespan)
        ~path;
      Format.printf "Gantt chart written to %s@." path);
  Format.printf
    "%-10s estimated=%10.2fs simulated=%10.2fs work=%12.0f \
     redistributions=%d avoided=%d remote=%a@."
    (Core.Rats.strategy_name strategy)
    (Core.Schedule.makespan_estimated sched)
    sim.Core.Evaluate.makespan (Core.Schedule.total_work sched)
    sim.Core.Evaluate.redistributions sim.Core.Evaluate.avoided
    Rats_util.Units.pp_bytes sim.Core.Evaluate.remote_bytes;
  if gantt then begin
    Format.printf "  task  procs                        sim-start    sim-end@.";
    Array.iteri
      (fun i start ->
        let e = Core.Schedule.entry sched i in
        Format.printf "  %4d  %-28s %9.2f  %9.2f@." i
          (Format.asprintf "%a" Procset.pp e.Core.Schedule.procs)
          start
          sim.Core.Evaluate.finishes.(i))
      sim.Core.Evaluate.starts
  end

let run config cluster algo mindelta maxdelta minrho packing gantt svg obs =
  Common.start_obs obs;
  let dag = Suite.generate config in
  let problem = Core.Problem.make ~dag ~cluster in
  Format.printf "%s on %s (%a)@." (Suite.name config)
    cluster.Rats_platform.Cluster.name Rats_dag.Dag.pp_stats dag;
  let alloc = Core.Hcpa.allocate problem in
  Format.printf "HCPA allocation: %d processor-slots over %d tasks (max %d)@."
    (Array.fold_left ( + ) 0 alloc)
    (Array.length alloc)
    (Array.fold_left max 0 alloc);
  List.iter
    (fun s -> report problem s alloc gantt svg)
    (strategies algo mindelta maxdelta minrho packing)

let algo_term =
  Arg.(
    value
    & opt (enum [ ("hcpa", `Hcpa); ("delta", `Delta); ("timecost", `Timecost);
                  ("all", `All) ])
        `All
    & info [ "algo" ] ~docv:"ALGO" ~doc:"hcpa, delta, timecost or all.")

let gantt_term =
  Arg.(value & flag & info [ "gantt" ] ~doc:"Print per-task simulated spans.")

let svg_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "svg" ] ~docv:"PREFIX"
        ~doc:"Write a Gantt chart to $(docv)-<algo>.svg for each algorithm.")

let cmd =
  Cmd.v
    (Cmd.info "rats_run" ~doc:"Schedule a mixed-parallel application with RATS")
    Term.(
      const run $ Common.config_term $ Common.cluster_term $ algo_term
      $ Common.mindelta_term $ Common.maxdelta_term $ Common.minrho_term
      $ Common.packing_term $ gantt_term $ svg_term $ Common.obs_term)

let () = exit (Cmd.eval cmd)
