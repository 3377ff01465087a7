module Suite = Rats_daggen.Suite
module Cluster = Rats_platform.Cluster
module Topology = Rats_platform.Topology
module Core = Rats_core
module Stats = Rats_util.Stats
module Pool = Rats_runtime.Pool
module Exec = Rats_runtime.Exec

type ratio_row = {
  label : string;
  mean_ratio : float;
  max_ratio : float;
}

(* Study-level caching: each study's whole result is one aggregate entry
   keyed by study name, cluster signature and configuration set. *)
let study_key study cluster configs =
  Payload.key ("ablation." ^ study) cluster configs

(* Per-configuration scheduling is the expensive, fault-prone unit; a
   failed configuration drops out of the study averages and is counted in
   [exec.stats]. The cheap re-measurements below stay on the plain pool. *)
let schedules_for ~exec cluster configs strategy =
  Exec.map exec
    ~name:(fun c ->
      "ablation.schedule/" ^ cluster.Cluster.name ^ "/" ^ Suite.name c)
    ~f:(fun config ->
      let dag = Suite.generate config in
      let problem = Core.Problem.make ~dag ~cluster in
      Core.Rats.schedule problem strategy)
    configs
  |> Exec.oks

let ratio_study ~exec ~study cluster configs ~ablated ~full =
  let ratio_row (label, strategy) =
    let ratios =
      Pool.map ~jobs:exec.Exec.jobs
        (fun s ->
          let a = (ablated s : Core.Evaluate.result) in
          let f = (full s : Core.Evaluate.result) in
          a.Core.Evaluate.makespan /. f.Core.Evaluate.makespan)
        (schedules_for ~exec cluster configs strategy)
      |> Array.of_list
    in
    {
      label;
      mean_ratio = Stats.mean ratios;
      max_ratio = snd (Stats.min_max ratios);
    }
  in
  Exec.cached exec ~key:(study_key study cluster configs)
    ~encode:
      (Payload.lines (fun r ->
           Payload.row r.label [ r.mean_ratio; r.max_ratio ]))
    ~decode:
      (Payload.to_lines (fun line ->
           match Payload.to_row line with
           | Some (label, [ mean_ratio; max_ratio ]) ->
               Some { label; mean_ratio; max_ratio }
           | _ -> None))
    (fun () ->
      List.map ratio_row
        [
          ("hcpa", Core.Rats.Baseline);
          ("time-cost", Core.Rats.Timecost Core.Rats.naive_timecost);
        ])

let placement_study ?(exec = Exec.make ()) cluster configs =
  ratio_study ~exec ~study:"placement" cluster configs
    ~ablated:(Core.Evaluate.run ~optimize_placement:false)
    ~full:(Core.Evaluate.run ~optimize_placement:true)

let replay_study ?(exec = Exec.make ()) cluster configs =
  ratio_study ~exec ~study:"replay" cluster configs
    ~ablated:(Core.Evaluate.run ~work_conserving:false)
    ~full:(Core.Evaluate.run ~work_conserving:true)

let window_values =
  [ 16. *. 1024.; 65536.; 262144.; 1048576.; 4. *. 1048576. ]

let window_study ?(exec = Exec.make ()) configs =
  List.map
    (fun tcp_wmax ->
      (* The window value is part of the cluster signature, so each window
         point caches under its own key. *)
      let cluster =
        Cluster.make ~name:"grelon-like"
          ~topology:(Topology.Cabinets { cabinets = 5; per_cabinet = 24 })
          ~speed_gflops:3.185 ~tcp_wmax ()
      in
      let mean =
        Exec.cached exec ~key:(study_key "window" cluster configs)
          ~encode:(fun mean -> Payload.floats [ mean ])
          ~decode:(fun payload ->
            match Payload.to_floats payload with
            | Some [ mean ] -> Some mean
            | _ -> None)
          (fun () ->
            Stats.mean
              (Array.of_list
                 (Pool.map ~jobs:exec.Exec.jobs
                    (fun s -> (Core.Evaluate.run s).Core.Evaluate.makespan)
                    (schedules_for ~exec cluster configs Core.Rats.Baseline))))
      in
      (tcp_wmax, mean))
    window_values

let purity_rows ~exec cluster configs =
  let jobs = exec.Exec.jobs in
  let problems =
    Exec.map exec
      ~name:(fun c ->
        "ablation.problem/" ^ cluster.Cluster.name ^ "/" ^ Suite.name c)
      ~f:(fun config -> Core.Problem.make ~dag:(Suite.generate config) ~cluster)
      configs
    |> Exec.oks
  in
  let mean_of schedules =
    Stats.mean
      (Array.of_list
         (Pool.map ~jobs
            (fun s -> (Core.Evaluate.run s).Core.Evaluate.makespan)
            schedules))
  in
  let timecost =
    mean_of
      (Pool.map ~jobs
         (fun p -> Core.Rats.schedule p (Core.Rats.Timecost Core.Rats.naive_timecost))
         problems)
  in
  let rows =
    [
      ("time-cost RATS", timecost);
      ("hcpa", mean_of (Pool.map ~jobs (fun p -> Core.Rats.schedule p Core.Rats.Baseline) problems));
      ("pure data-parallel", mean_of (Pool.map ~jobs Core.Reference.data_parallel problems));
      ("pure task-parallel", mean_of (Pool.map ~jobs Core.Reference.task_parallel problems));
    ]
  in
  List.map (fun (label, v) -> (label, v /. timecost)) rows

let purity_study ?(exec = Exec.make ()) cluster configs =
  Exec.cached exec ~key:(study_key "purity" cluster configs)
    ~encode:(Payload.lines (fun (label, v) -> Payload.row label [ v ]))
    ~decode:
      (Payload.to_lines (fun line ->
           match Payload.to_row line with
           | Some (label, [ v ]) -> Some (label, v)
           | _ -> None))
    (fun () -> purity_rows ~exec cluster configs)

(* A small, shape-diverse subset keeps the studies affordable. *)
let study_configs scale = Runner.first_samples ~cap:20 (Suite.all scale)

let print_all ?exec ppf scale =
  let configs = study_configs scale in
  let cluster = Cluster.grillon in
  Format.fprintf ppf
    "Ablation studies (%d configurations, %s cluster unless noted)@."
    (List.length configs) cluster.Cluster.name;
  Format.fprintf ppf
    "@.1. Self-communication-maximizing placement (natural / optimized):@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "   %-12s mean x%.3f, worst x%.3f@." r.label
        r.mean_ratio r.max_ratio)
    (placement_study ?exec cluster configs);
  Format.fprintf ppf
    "@.2. Work-conserving replay (strict-order / work-conserving):@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "   %-12s mean x%.3f, worst x%.3f@." r.label
        r.mean_ratio r.max_ratio)
    (replay_study ?exec cluster configs);
  Format.fprintf ppf
    "@.3. TCP window sensitivity (grelon-like hierarchical cluster):@.";
  List.iter
    (fun (wmax, makespan) ->
      Format.fprintf ppf "   Wmax=%8.0fKiB  mean makespan %10.2fs@."
        (wmax /. 1024.) makespan)
    (window_study ?exec configs);
  Format.fprintf ppf
    "@.4. Mixed parallelism vs pure corners (relative to time-cost RATS):@.";
  List.iter
    (fun (label, v) -> Format.fprintf ppf "   %-20s x%.3f@." label v)
    (purity_study ?exec cluster configs)
