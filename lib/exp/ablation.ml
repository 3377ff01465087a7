module Suite = Rats_daggen.Suite
module Cluster = Rats_platform.Cluster
module Topology = Rats_platform.Topology
module Core = Rats_core
module Stats = Rats_util.Stats

type ratios = { mean_ratio : float; max_ratio : float }

let timecost = Runner.mapped (Core.Rats.Timecost Core.Rats.naive_timecost)
let ratio_arms = [ ("hcpa", Runner.hcpa); ("time-cost", timecost) ]

let mean_makespan lookup cells =
  Runner.mean
    (List.filter_map
       (fun c -> Option.map (fun m -> m.Runner.makespan) (lookup c))
       cells)

(* Each row compares every configuration's cell with its [ablate]d twin:
   the same schedule, replayed with one mechanism switched off. *)
let ratio_study ?exec cluster configs ~ablate =
  let full =
    List.concat_map
      (fun config ->
        List.map (fun (_, arm) -> Runner.cell cluster config arm) ratio_arms)
      configs
  in
  let lookup = Runner.run_cells ?exec (full @ List.map ablate full) in
  List.map
    (fun (label, arm) ->
      let ratios =
        List.filter_map
          (fun config ->
            let c = Runner.cell cluster config arm in
            match (lookup (ablate c), lookup c) with
            | Some a, Some f -> Some (a.Runner.makespan /. f.Runner.makespan)
            | _ -> None)
          configs
      in
      ( label,
        Option.map
          (fun mean_ratio ->
            {
              mean_ratio;
              max_ratio = snd (Stats.min_max (Array.of_list ratios));
            })
          (Runner.mean ratios) ))
    ratio_arms

let placement_study ?exec cluster configs =
  ratio_study ?exec cluster configs ~ablate:(fun c ->
      { c with Runner.optimize_placement = false })

let replay_study ?exec cluster configs =
  ratio_study ?exec cluster configs ~ablate:(fun c ->
      { c with Runner.work_conserving = false })

let window_values =
  [ 16. *. 1024.; 65536.; 262144.; 1048576.; 4. *. 1048576. ]

(* The window is part of the cluster signature, so every window point has
   records of its own. *)
let window_study ?exec configs =
  let clusters =
    List.map
      (fun tcp_wmax ->
        ( tcp_wmax,
          Cluster.make ~name:"grelon-like"
            ~topology:(Topology.Cabinets { cabinets = 5; per_cabinet = 24 })
            ~speed_gflops:3.185 ~tcp_wmax () ))
      window_values
  in
  let cells cluster =
    List.map (fun config -> Runner.cell cluster config Runner.hcpa) configs
  in
  let lookup =
    Runner.run_cells ?exec (List.concat_map (fun (_, c) -> cells c) clusters)
  in
  List.map
    (fun (tcp_wmax, cluster) -> (tcp_wmax, mean_makespan lookup (cells cluster)))
    clusters

let purity_study ?exec cluster configs =
  let arms =
    [
      ("time-cost RATS", timecost);
      ("hcpa", Runner.hcpa);
      ("pure data-parallel", Runner.data_parallel);
      ("pure task-parallel", Runner.task_parallel);
    ]
  in
  let cells arm =
    List.map (fun config -> Runner.cell cluster config arm) configs
  in
  let lookup =
    Runner.run_cells ?exec (List.concat_map (fun (_, arm) -> cells arm) arms)
  in
  let reference = mean_makespan lookup (cells timecost) in
  List.map
    (fun (label, arm) ->
      ( label,
        Option.bind reference (fun r ->
            Option.map (fun v -> v /. r) (mean_makespan lookup (cells arm))) ))
    arms

(* A small, shape-diverse subset keeps the studies affordable. *)
let study_configs scale = Runner.first_samples ~cap:20 (Suite.all scale)

let print_all ?exec ppf scale =
  let configs = study_configs scale in
  let cluster = Cluster.grillon in
  let ratios ppf r =
    Format.fprintf ppf "mean x%.3f, worst x%.3f" r.mean_ratio r.max_ratio
  in
  Format.fprintf ppf
    "Ablation studies (%d configurations, %s cluster unless noted)@."
    (List.length configs) cluster.Cluster.name;
  Format.fprintf ppf
    "@.1. Self-communication-maximizing placement (natural / optimized):@.";
  List.iter
    (fun (label, r) ->
      Format.fprintf ppf "   %-12s %a@." label (Figures.pp_value ratios) r)
    (placement_study ?exec cluster configs);
  Format.fprintf ppf
    "@.2. Work-conserving replay (strict-order / work-conserving):@.";
  List.iter
    (fun (label, r) ->
      Format.fprintf ppf "   %-12s %a@." label (Figures.pp_value ratios) r)
    (replay_study ?exec cluster configs);
  Format.fprintf ppf
    "@.3. TCP window sensitivity (grelon-like hierarchical cluster):@.";
  List.iter
    (fun (wmax, makespan) ->
      Format.fprintf ppf "   Wmax=%8.0fKiB  mean makespan %a@." (wmax /. 1024.)
        (Figures.pp_value (fun ppf -> Format.fprintf ppf "%10.2fs"))
        makespan)
    (window_study ?exec configs);
  Format.fprintf ppf
    "@.4. Mixed parallelism vs pure corners (relative to time-cost RATS):@.";
  List.iter
    (fun (label, v) ->
      Format.fprintf ppf "   %-20s %a@." label
        (Figures.pp_value (fun ppf -> Format.fprintf ppf "x%.3f"))
        v)
    (purity_study ?exec cluster configs)
