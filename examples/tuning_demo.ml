(* Tuning demo: a miniature of the paper's §IV-C parameter study.

   Sweeps the delta strategy's (mindelta, maxdelta) grid and the time-cost
   strategy's minrho values over a handful of irregular workflows on
   grillon, printing the average makespan relative to HCPA for every grid
   point — the same surfaces as Figures 4 and 5, at toy scale (the full
   versions live in bench/main.exe fig4 / fig5, and bench/main.exe sweep
   runs the whole suite at one chosen grid point).

   Run with: dune exec examples/tuning_demo.exe *)

module Suite = Rats_daggen.Suite
module Shape = Rats_daggen.Shape
module Cluster = Rats_platform.Cluster
module Exp = Rats_exp

let () =
  let configs =
    List.concat_map
      (fun width ->
        List.map
          (fun sample ->
            let shape =
              Shape.make ~width ~regularity:0.8 ~density:0.2 ~jump:2 ()
            in
            { Suite.spec = Suite.Irregular { n_tasks = 25; shape }; sample })
          [ 0; 1 ])
      [ 0.2; 0.5 ]
  in
  Format.printf "sweeping %d workflows on grillon...@." (List.length configs);
  let delta_points = Exp.Tuning.sweep_delta Cluster.grillon configs in
  Exp.Figures.fig4 Format.std_formatter delta_points;

  Format.printf "@.";
  let timecost_points = Exp.Tuning.sweep_timecost Cluster.grillon configs in
  Exp.Figures.fig5 Format.std_formatter timecost_points;

  match Exp.Tuning.best delta_points timecost_points with
  | Some tuned ->
      Format.printf
        "@.best parameters here: mindelta=%.2f maxdelta=%.2f minrho=%.2f@."
        tuned.Exp.Tuning.delta.Rats_core.Rats.mindelta
        tuned.Exp.Tuning.delta.Rats_core.Rats.maxdelta tuned.Exp.Tuning.minrho
  | None -> Format.printf "@.no grid point survived@."
