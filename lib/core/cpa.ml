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
   are computation-only. A refinement grows one task, so the loop keeps
   every task's current time and the running Σω across refinements, and
   redoes only the bottom-level pass over the DAG's stored order. *)
let allocate_capped problem ~cap =
  let n = Problem.n_tasks problem in
  let area_procs = Problem.n_procs problem in
  let cap = Array.init n (fun i -> Int.min (cap i) area_procs) in
  Array.iter
    (fun c -> if c < 1 then invalid_arg "Cpa.allocate_capped: cap below 1")
    cap;
  Trace.span ~cat:"core" "alloc:cpa" (fun () ->
  let dag = Problem.dag problem in
  let order = Dag.topological_order dag in
  let succs =
    Array.init n (fun i -> Array.of_list (List.map fst (Dag.succs dag i)))
  in
  let is_virtual = Array.init n (Problem.is_virtual problem) in
  let entry = Problem.entry problem in
  let alloc = Array.make n 1 in
  let time = Array.init n (fun i -> Problem.task_time problem i ~procs:1) in
  let bl = Array.make n 0. in
  (* Task times are never NaN or negative, so no bottom level is NaN or
     -0. and a plain [>] picks what [Float.max] would. *)
  let bottom_levels () =
    for k = n - 1 downto 0 do
      let u = order.(k) in
      let s = succs.(u) in
      let best = ref 0. in
      for j = 0 to Array.length s - 1 do
        let b = bl.(s.(j)) in
        if b > !best then best := b
      done;
      bl.(u) <- time.(u) +. !best
    done
  in
  (* The first successor of [i] realizing its bottom level; -1 at an exit. *)
  let next_on_path i =
    let s = succs.(i) in
    let eps = 1e-9 *. (1. +. Float.abs bl.(i)) in
    let k = ref 0 in
    while
      !k < Array.length s
      && not (Float.abs (bl.(i) -. (time.(i) +. bl.(s.(!k)))) <= eps)
    do
      incr k
    done;
    if !k < Array.length s then s.(!k) else -1
  in
  (* Σω summed left to right, exactly as [average_area] does. The running
     sum drifts by a few ulps per refinement, so it only decides when C∞
     clearly exceeds W; every other stop test uses the exact sum, and the
     running sum restarts from it at least once every [n] refinements. *)
  let running = ref 0. in
  let exact_total () =
    let s = ref 0. in
    for i = 0 to n - 1 do
      s := !s +. (float_of_int alloc.(i) *. time.(i))
    done;
    running := !s;
    !s
  in
  ignore (exact_total ());
  let area_procs_f = float_of_int area_procs in
  let above_area c_inf =
    c_inf > (!running /. area_procs_f) +. (1e-9 *. (1. +. Float.abs c_inf))
    || not (c_inf <= exact_total () /. area_procs_f)
  in
  let refinements = ref 0 in
  let continue = ref true in
  while !continue do
    bottom_levels ();
    if not (above_area bl.(entry)) then continue := false
    else begin
      (* Walk the critical path from the entry and pick the path task that
         gains the most execution time from one extra processor (the
         earliest on ties). *)
      let best = ref (-1) and best_gain = ref 0. and best_time = ref 0. in
      let u = ref entry in
      while !u >= 0 do
        let i = !u in
        if alloc.(i) < cap.(i) && not is_virtual.(i) then begin
          let t_next = Problem.task_time problem i ~procs:(alloc.(i) + 1) in
          let gain = time.(i) -. t_next in
          if !best < 0 || not (!best_gain >= gain) then begin
            best := i;
            best_gain := gain;
            best_time := t_next
          end
        end;
        u := next_on_path i
      done;
      if !best >= 0 && !best_gain > 0. then begin
        let i = !best in
        let a = alloc.(i) in
        running :=
          !running
          +. ((float_of_int (a + 1) *. !best_time) -. (float_of_int a *. time.(i)));
        alloc.(i) <- a + 1;
        time.(i) <- !best_time;
        incr refinements;
        if !refinements mod n = 0 then ignore (exact_total ())
      end
      else continue := false
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
