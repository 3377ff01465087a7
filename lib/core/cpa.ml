module Dag = Rats_dag.Dag
module Metrics = Rats_obs.Metrics
module Trace = Rats_obs.Trace
module Instr = Rats_obs.Instr

let bottom_levels problem ~alloc =
  let dag = Problem.dag problem in
  Dag.bottom_levels dag
    ~task_cost:(fun i -> Problem.task_time problem i ~procs:alloc.(i))
    ~edge_cost:(fun _ _ bytes -> Problem.edge_cost_estimate problem bytes)

let average_area problem ~alloc ~area_procs =
  if area_procs < 1 then invalid_arg "Cpa.average_area: area_procs < 1";
  let total = ref 0. in
  for i = 0 to Problem.n_tasks problem - 1 do
    total := !total +. Problem.task_work problem i ~procs:alloc.(i)
  done;
  !total /. float_of_int area_procs

(* The allocation step deliberately ignores redistribution costs (paper §I:
   they cannot be estimated before tasks are mapped), so its critical paths
   are computation-only. *)
let computation_critical_path problem ~alloc =
  Dag.critical_path (Problem.dag problem)
    ~task_cost:(fun i -> Problem.task_time problem i ~procs:alloc.(i))
    ~edge_cost:(fun _ _ _ -> 0.)

let allocate_capped problem ~cap =
  let area_procs = Problem.n_procs problem in
  let cap i = min (cap i) area_procs in
  for i = 0 to Problem.n_tasks problem - 1 do
    if cap i < 1 then invalid_arg "Cpa.allocate_capped: cap below 1"
  done;
  Trace.span ~cat:"core" "alloc:cpa" (fun () ->
  let refinements = ref 0 in
  let alloc = Array.make (Problem.n_tasks problem) 1 in
  let continue = ref true in
  while !continue do
    let path, c_inf = computation_critical_path problem ~alloc in
    let w = average_area problem ~alloc ~area_procs in
    if c_inf <= w then continue := false
    else begin
      (* Pick the critical-path task that gains the most execution time from
         one extra processor. *)
      let best = ref None in
      List.iter
        (fun i ->
          if alloc.(i) < cap i && not (Problem.is_virtual problem i) then begin
            let gain =
              Problem.task_time problem i ~procs:alloc.(i)
              -. Problem.task_time problem i ~procs:(alloc.(i) + 1)
            in
            match !best with
            | Some (_, g) when g >= gain -> ()
            | _ -> best := Some (i, gain)
          end)
        path;
      match !best with
      | Some (i, gain) when gain > 0. ->
          alloc.(i) <- alloc.(i) + 1;
          incr refinements
      | _ -> continue := false
    end
  done;
  Metrics.incr Instr.alloc_runs;
  if !refinements > 0 then Metrics.add Instr.alloc_refinements !refinements;
  Problem.publish_metrics problem;
  alloc)

let allocate_with problem ~max_per_task =
  if max_per_task < 1 then invalid_arg "Cpa.allocate_with: max_per_task < 1";
  allocate_capped problem ~cap:(fun _ -> max_per_task)

let allocate problem =
  allocate_with problem ~max_per_task:(Problem.n_procs problem)
