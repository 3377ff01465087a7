module Core = Rats_core
module Dag = Rats_dag.Dag

type features = {
  avg_parallelism : float;
  ccr : float;
  procs_per_parallelism : float;
}

let features problem =
  let avg_parallelism = Core.Hcpa.average_parallelism problem in
  let dag = Core.Problem.dag problem in
  let comp = ref 0. and comm = ref 0. in
  for i = 0 to Core.Problem.n_tasks problem - 1 do
    comp := !comp +. Core.Problem.task_time problem i ~procs:1
  done;
  List.iter
    (fun e ->
      comm := !comm +. Core.Problem.edge_cost_estimate problem e.Dag.bytes)
    (Dag.edges dag);
  {
    avg_parallelism;
    ccr = (if !comp > 0. then !comm /. !comp else 0.);
    procs_per_parallelism =
      float_of_int (Core.Problem.n_procs problem) /. avg_parallelism;
  }

let estimated_makespan ~alloc problem strategy =
  Core.Schedule.makespan_estimated (Core.Rats.schedule ~alloc problem strategy)

let argmin_by f = function
  | [] -> invalid_arg "Autotune: empty candidate list"
  | x :: rest ->
      let best = ref x and best_v = ref (f x) in
      List.iter
        (fun y ->
          let v = f y in
          if v < !best_v then begin
            best := y;
            best_v := v
          end)
        rest;
      !best

let probe_delta ~alloc problem =
  argmin_by
    (fun p -> estimated_makespan ~alloc problem (Core.Rats.Delta p))
    Tuning.delta_grid

let probe_timecost ~alloc problem =
  argmin_by
    (fun p -> estimated_makespan ~alloc problem (Core.Rats.Timecost p))
    Tuning.timecost_grid

let probe ~alloc problem =
  let d = Core.Rats.Delta (probe_delta ~alloc problem) in
  let t = Core.Rats.Timecost (probe_timecost ~alloc problem) in
  if estimated_makespan ~alloc problem d < estimated_makespan ~alloc problem t
  then d
  else t

let clamp lo hi v = Float.max lo (Float.min hi v)

let rules_delta f =
  {
    (* Figures 4: generous stretching always pays. Packing pays only when
       independent tasks compete for a crowded platform (few processors per
       unit of application parallelism). *)
    Core.Rats.maxdelta = 1.;
    mindelta = (if f.procs_per_parallelism < 3. then -0.25 else 0.);
  }

let rules_timecost f =
  {
    (* Figure 5: lower thresholds pay when communication dominates — a
       stretch that kills a redistribution is then worth a poor time-cost
       ratio. With cheap communication, stay conservative. *)
    Core.Rats.minrho = clamp 0.2 0.8 (0.8 -. (0.3 *. f.ccr));
    packing = true;
  }

let selectors =
  let strategy name select =
    Runner.arm ~name (fun (p : Runner.prepared) ->
        Core.Rats.schedule ~alloc:p.alloc p.problem (select p))
  in
  [
    ("naive delta", Runner.mapped (Core.Rats.Delta Core.Rats.naive_delta));
    ( "naive time-cost",
      Runner.mapped (Core.Rats.Timecost Core.Rats.naive_timecost) );
    ( "probe",
      strategy
        (String.concat " " ("probe" :: Tuning.grid_signature))
        (fun p -> probe ~alloc:p.alloc p.problem) );
    ( "rules delta",
      strategy "rules delta" (fun p ->
          Core.Rats.Delta (rules_delta (features p.problem))) );
    ( "rules time-cost",
      strategy "rules time-cost" (fun p ->
          Core.Rats.Timecost (rules_timecost (features p.problem))) );
  ]

let selector_study ?exec cluster configs =
  let lookup =
    Runner.run_cells ?exec
      (List.concat_map
         (fun config ->
           List.map (Runner.cell cluster config)
             (Runner.hcpa :: List.map snd selectors))
         configs)
  in
  List.map
    (fun (name, arm) ->
      (name, Runner.relative_makespan lookup cluster configs arm))
    selectors
