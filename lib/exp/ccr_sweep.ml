module Suite = Rats_daggen.Suite
module Cluster = Rats_platform.Cluster
module Dag = Rats_dag.Dag
module Task = Rats_dag.Task
module Core = Rats_core
module Stats = Rats_util.Stats
module Cache = Rats_runtime.Cache
module Exec = Rats_runtime.Exec

let flop_factors = [ 8.; 4.; 2.; 1.; 0.5; 0.25 ]

type point = {
  flop_factor : float;
  ccr : float;
  delta_relative : float;
  timecost_relative : float;
}

let scale_flop dag factor =
  Dag.map_tasks dag ~f:(fun t ->
      Task.make ~id:t.Task.id ~name:t.Task.name
        ~data_elements:t.Task.data_elements ~flop:(factor *. t.Task.flop)
        ~alpha:t.Task.alpha)

let cell_key cluster config flop_factor =
  Cache.key
    [
      "ccr_sweep.cell";
      Cluster.signature cluster;
      Suite.name config;
      Printf.sprintf "%h" flop_factor;
    ]

let encode_cell (ccr, d, t) = Payload.floats [ ccr; d; t ]

let decode_cell payload =
  match Payload.to_floats payload with
  | Some [ ccr; d; t ] -> Some (ccr, d, t)
  | _ -> None

let measure_cell cluster config flop_factor =
  let dag = scale_flop (Suite.generate config) flop_factor in
  let p = Runner.prepare cluster dag in
  let relative strategy =
    (Runner.measure p strategy).Runner.makespan
    /. p.Runner.baseline.Runner.makespan
  in
  let ccr = (Autotune.features p.Runner.problem).Autotune.ccr in
  ( ccr,
    relative (Core.Rats.Delta Core.Rats.naive_delta),
    relative (Core.Rats.Timecost Core.Rats.naive_timecost) )

(* Each (configuration, factor) cell goes through the full stack — cache,
   journal, fault points, retries — so an interrupted sweep resumes at cell
   granularity. *)
let cell ~exec cluster config flop_factor =
  Exec.keyed exec
    ~name:
      (Printf.sprintf "ccr/%s/%s@x%g" cluster.Cluster.name (Suite.name config)
         flop_factor)
    ~key:(cell_key cluster config flop_factor)
    ~encode:encode_cell ~decode:decode_cell
    (fun () -> measure_cell cluster config flop_factor)

let run ?(exec = Exec.make ()) cluster configs =
  List.filter_map
    (fun flop_factor ->
      let outcomes =
        Exec.map_outcome exec
          ~run:(fun config -> cell ~exec cluster config flop_factor)
          configs
      in
      let measurements =
        List.filter_map (fun o -> Result.to_option o.Exec.value) outcomes
      in
      (* A factor whose cells all failed yields no point rather than NaN
         columns; partially failed factors average the surviving cells. *)
      if measurements = [] then None
      else
        let col f = Stats.mean (Array.of_list (List.map f measurements)) in
        Some
          {
            flop_factor;
            ccr = col (fun (c, _, _) -> c);
            delta_relative = col (fun (_, d, _) -> d);
            timecost_relative = col (fun (_, _, t) -> t);
          })
    flop_factors

let print ppf points =
  Format.fprintf ppf
    "CCR crossover: makespan relative to HCPA as communication dominance \
     varies@.";
  Format.fprintf ppf "  %10s %8s %8s %10s@." "flop-scale" "CCR" "delta"
    "time-cost";
  List.iter
    (fun p ->
      Format.fprintf ppf "  %10.2f %8.2f %8.3f %10.3f@." p.flop_factor p.ccr
        p.delta_relative p.timecost_relative)
    points
