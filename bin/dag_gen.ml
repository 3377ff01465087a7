(* dag_gen: generate mixed-parallel task graphs and inspect or export them.

   Examples:
     dune exec bin/dag_gen.exe -- --kind fft --fft-k 8 --dot fft.dot
     dune exec bin/dag_gen.exe -- --kind layered --tasks 50 --width 0.8 *)

open Cmdliner
module Common = Rats_cli.Common
module Suite = Rats_daggen.Suite
module Dag = Rats_dag.Dag
module Task = Rats_dag.Task

let run config dot levels =
  let dag = Suite.generate config in
  Format.printf "%s: %a@." (Suite.name config) Dag.pp_stats dag;
  let total_flop =
    Array.fold_left (fun acc t -> acc +. t.Task.flop) 0. (Dag.tasks dag)
  in
  let total_bytes =
    List.fold_left (fun acc e -> acc +. e.Dag.bytes) 0. (Dag.edges dag)
  in
  Format.printf "total computation: %.3g Gflop, total transfers: %a@."
    (total_flop /. 1e9) Rats_util.Units.pp_bytes total_bytes;
  if levels then begin
    let groups = Dag.level_groups dag in
    Array.iteri
      (fun l tasks ->
        Format.printf "level %2d (%2d tasks):" l (List.length tasks);
        List.iter
          (fun i -> Format.printf " %s" (Dag.task dag i).Task.name)
          tasks;
        Format.printf "@.")
      groups
  end;
  match dot with
  | None -> ()
  | Some path ->
      Rats_obs.File.mkdir_p (Filename.dirname path);
      Rats_obs.File.write_atomic path (Format.asprintf "%a" Dag.pp_dot dag);
      Format.printf "DOT written to %s@." path

let dot_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE" ~doc:"Write a Graphviz rendering to $(docv).")

let levels_term =
  Arg.(value & flag & info [ "levels" ] ~doc:"Print the level decomposition.")

let cmd =
  Cmd.v
    (Cmd.info "dag_gen" ~doc:"Generate mixed-parallel task graphs")
    Term.(const run $ Common.config_term $ dot_term $ levels_term)

let () = exit (Cmd.eval cmd)
