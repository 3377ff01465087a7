module Suite = Rats_daggen.Suite
module Cluster = Rats_platform.Cluster
module Core = Rats_core

let mindelta_values = [ 0.; -0.25; -0.5; -0.75 ]
let maxdelta_values = [ 0.; 0.25; 0.5; 0.75; 1. ]
let minrho_values = [ 0.2; 0.4; 0.5; 0.6; 0.8; 1. ]

let delta_grid =
  List.concat_map
    (fun mindelta ->
      List.map (fun maxdelta -> { Core.Rats.mindelta; maxdelta }) maxdelta_values)
    mindelta_values

let timecost_grid =
  List.concat_map
    (fun packing ->
      List.map (fun minrho -> { Core.Rats.minrho; packing }) minrho_values)
    [ false; true ]

let grid_signature =
  List.map
    (fun values -> String.concat "," (List.map (Printf.sprintf "%h") values))
    [ mindelta_values; maxdelta_values; minrho_values ]

let tuning_configs scale kind =
  Runner.first_samples ~cap:24
    (List.filter (fun c -> Suite.kind c = kind) (Suite.all scale))

type delta_point = {
  mindelta : float;
  maxdelta : float;
  avg_relative_makespan : float;
}

type timecost_point = {
  packing : bool;
  minrho : float;
  avg_relative_makespan : float;
}

let delta_arm d = Runner.mapped (Core.Rats.Delta d)
let timecost_arm t = Runner.mapped (Core.Rats.Timecost t)

(* Every configuration's HCPA cell and one cell per grid point. *)
let cells arms cluster configs =
  List.concat_map
    (fun config -> List.map (Runner.cell cluster config) (Runner.hcpa :: arms))
    configs

let delta_cells = cells (List.map delta_arm delta_grid)
let timecost_cells = cells (List.map timecost_arm timecost_grid)
let tuning_cells cluster configs =
  delta_cells cluster configs @ timecost_cells cluster configs

(* A grid point that no configuration survived is dropped; the figure
   printers render it as "-". *)
let delta_points lookup cluster configs =
  List.filter_map
    (fun (d : Core.Rats.delta_params) ->
      Option.map
        (fun avg_relative_makespan ->
          { mindelta = d.mindelta; maxdelta = d.maxdelta; avg_relative_makespan })
        (Runner.relative_makespan lookup cluster configs (delta_arm d)))
    delta_grid

let timecost_points lookup cluster configs =
  List.filter_map
    (fun (t : Core.Rats.timecost_params) ->
      Option.map
        (fun avg_relative_makespan ->
          { packing = t.packing; minrho = t.minrho; avg_relative_makespan })
        (Runner.relative_makespan lookup cluster configs (timecost_arm t)))
    timecost_grid

let sweep_delta ?exec cluster configs =
  delta_points (Runner.run_cells ?exec (delta_cells cluster configs)) cluster
    configs

let sweep_timecost ?exec cluster configs =
  timecost_points
    (Runner.run_cells ?exec (timecost_cells cluster configs))
    cluster configs

type tuned = { delta : Core.Rats.delta_params; minrho : float }

let best delta_points timecost_points =
  let best_delta =
    List.fold_left
      (fun (acc : delta_point option) (p : delta_point) ->
        match acc with
        | Some b when b.avg_relative_makespan <= p.avg_relative_makespan -> acc
        | _ -> Some p)
      None delta_points
  in
  let best_tc =
    List.fold_left
      (fun (acc : timecost_point option) p ->
        if not p.packing then acc
        else
          match acc with
          | Some b when b.avg_relative_makespan <= p.avg_relative_makespan -> acc
          | _ -> Some p)
      None timecost_points
  in
  match (best_delta, best_tc) with
  | Some d, Some t ->
      Some
        {
          delta = { Core.Rats.mindelta = d.mindelta; maxdelta = d.maxdelta };
          minrho = t.minrho;
        }
  | _ -> None

let tune lookup cluster configs =
  best
    (delta_points lookup cluster configs)
    (timecost_points lookup cluster configs)

let tune_cell ?exec cluster configs =
  tune (Runner.run_cells ?exec (tuning_cells cluster configs)) cluster configs

let kinds : Suite.app_kind list = [ `Fft; `Strassen; `Layered; `Irregular ]

(* One batch for the whole table, so the one-configuration Strassen cells
   run beside the others. *)
let table4 ?exec scale =
  let per_kind =
    List.map (fun kind -> (kind, tuning_configs scale kind)) kinds
  in
  let lookup =
    Runner.run_cells ?exec
      (List.concat_map
         (fun cluster ->
           List.concat_map (fun (_, c) -> tuning_cells cluster c) per_kind)
         Cluster.presets)
  in
  List.map
    (fun cluster ->
      ( cluster.Cluster.name,
        List.map (fun (kind, c) -> (kind, tune lookup cluster c)) per_kind ))
    Cluster.presets

let tuned_for table ~cluster ~kind = List.assoc kind (List.assoc cluster table)
