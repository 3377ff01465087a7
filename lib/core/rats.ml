module Procset = Rats_util.Procset
module Dag = Rats_dag.Dag
module Metrics = Rats_obs.Metrics
module Trace = Rats_obs.Trace
module Instr = Rats_obs.Instr

type delta_params = { mindelta : float; maxdelta : float }
type timecost_params = { minrho : float; packing : bool }

type strategy =
  | Baseline
  | Delta of delta_params
  | Timecost of timecost_params

let naive_delta = { mindelta = -0.5; maxdelta = 0.5 }
let naive_timecost = { minrho = 0.5; packing = true }

let strategy_name = function
  | Baseline -> "hcpa"
  | Delta _ -> "delta"
  | Timecost _ -> "time-cost"

(* Each test is written so that NaN and the infinities fail it. *)
let check_strategy = function
  | Baseline -> Ok ()
  | Delta { mindelta; maxdelta } ->
      if not (mindelta >= -1. && mindelta <= 0.) then
        Error "mindelta outside [-1, 0]"
      else if not (maxdelta >= 0. && maxdelta < infinity) then
        Error "maxdelta outside [0, inf)"
      else Ok ()
  | Timecost { minrho; _ } ->
      if not (minrho > 0. && minrho <= 1.) then Error "minrho outside (0, 1]"
      else Ok ()

let check_params strategy =
  match check_strategy strategy with
  | Ok () -> ()
  | Error e -> invalid_arg ("Rats: " ^ e)

(* Predecessors that can save a redistribution: mapped, data-carrying, not
   virtual. Returns (pred id, procset). *)
let strategy_preds st i =
  let problem = Mapping.problem st in
  List.filter_map
    (fun (pred, bytes) ->
      if bytes > 0. && not (Problem.is_virtual problem pred) then
        Some (pred, (Mapping.entry st pred).Schedule.procs)
      else None)
    (Dag.preds (Problem.dag problem) i)

(* --- Secondary sort keys (static within a mapping round) ---------------- *)

(* delta strategy: delta(t) = min(delta+, -delta-), +inf when no candidate. *)
let delta_key st i =
  let np = Mapping.alloc st i in
  List.fold_left
    (fun acc (_, procs) ->
      let d = abs (Procset.size procs - np) in
      if d > 0 then Int.min acc d else acc)
    max_int (strategy_preds st i)

(* time-cost strategy: gain(t) = max (T(t,np) - T(t,np_pred)); tasks are
   sorted by decreasing gain. *)
let gain_key st i =
  let problem = Mapping.problem st in
  let np = Mapping.alloc st i in
  let t_np = Problem.task_time problem i ~procs:np in
  List.fold_left
    (fun acc (_, procs) ->
      Float.max acc (t_np -. Problem.task_time problem i ~procs:(Procset.size procs)))
    neg_infinity (strategy_preds st i)

let sort_key strategy st i =
  match strategy with
  | Baseline -> 0.
  | Delta _ ->
      let d = delta_key st i in
      if d = max_int then infinity else float_of_int d
  | Timecost _ -> -.gain_key st i

(* --- Per-task mapping decisions ----------------------------------------- *)

let decide_delta st i { mindelta; maxdelta } =
  let np = Mapping.alloc st i in
  let preds = strategy_preds st i in
  let fnp = float_of_int np in
  let dmax = int_of_float ((maxdelta *. fnp) +. 1e-9) in
  let dmin = -int_of_float ((-.mindelta *. fnp) +. 1e-9) in
  let stretch =
    List.filter_map
      (fun (p, procs) ->
        let d = Procset.size procs - np in
        if d > 0 then Some (d, p, procs) else None)
      preds
  in
  let pack =
    List.filter_map
      (fun (p, procs) ->
        let d = Procset.size procs - np in
        if d < 0 then Some (d, p, procs) else None)
      preds
  in
  let delta_plus =
    List.fold_left (fun acc (d, _, _) -> Int.min acc d) max_int stretch
  in
  let delta_minus =
    List.fold_left (fun acc (d, _, _) -> Int.max acc d) min_int pack
  in
  let stretch_ok = delta_plus <> max_int && delta_plus <= dmax in
  let pack_ok = delta_minus <> min_int && delta_minus >= dmin in
  let chosen_delta =
    match (stretch_ok, pack_ok) with
    | false, false -> None
    | true, false -> Some delta_plus
    | false, true -> Some delta_minus
    (* Both admissible: least modification wins (the same rationale as the
       delta ready-list sort), stretch on ties. *)
    | true, true -> Some (if delta_plus <= -delta_minus then delta_plus else delta_minus)
  in
  match chosen_delta with
  | None -> None
  | Some d ->
      (* Among the predecessors realizing this delta, earliest finish wins. *)
      let cands =
        List.filter (fun (dd, _, _) -> dd = d) (if d > 0 then stretch else pack)
      in
      let best =
        List.fold_left
          (fun acc (_, _, procs) ->
            let _, finish = Mapping.estimate st i procs in
            match acc with
            | Some (_, bf) when bf <= finish -> acc
            | _ -> Some (procs, finish))
          None cands
      in
      Option.map fst best

let decide_timecost st i ~baseline { minrho; packing } =
  let problem = Mapping.problem st in
  let np = Mapping.alloc st i in
  let preds = strategy_preds st i in
  let work_np = Problem.task_work problem i ~procs:np in
  (* Stretch: predecessor maximizing the time-cost ratio, kept if >= minrho. *)
  let stretch =
    List.filter_map
      (fun (_, procs) ->
        let sz = Procset.size procs in
        if sz > np then begin
          let rho = work_np /. Problem.task_work problem i ~procs:sz in
          Some (rho, procs)
        end
        else None)
      preds
  in
  let best_stretch =
    List.fold_left
      (fun acc (rho, procs) ->
        match acc with
        | Some (brho, bprocs) ->
            if
              rho > brho
              || (rho = brho
                  && snd (Mapping.estimate st i procs)
                     < snd (Mapping.estimate st i bprocs))
            then Some (rho, procs)
            else acc
        | None -> Some (rho, procs))
      None stretch
  in
  match best_stretch with
  | Some (rho, procs) when rho >= minrho -> Some procs
  | _ when not packing -> None
  | _ -> (
      (* Pack: allowed only if the task finishes no later than with the
         baseline mapping of its original allocation. *)
      match List.filter (fun (_, procs) -> Procset.size procs < np) preds with
      | [] -> None
      | smaller ->
          let _, baseline_finish = Mapping.estimate st i (Lazy.force baseline) in
          let pack_cands =
            List.filter_map
              (fun (_, procs) ->
                let _, finish = Mapping.estimate st i procs in
                if finish <= baseline_finish +. 1e-12 then Some (finish, procs)
                else None)
              smaller
          in
          List.fold_left
            (fun acc (finish, procs) ->
              match acc with
              | Some (bf, _) when bf <= finish -> acc
              | _ -> Some (finish, procs))
            None pack_cands
          |> Option.map snd)

(* [baseline] is the task's {!Mapping.baseline_choice}, computed at most
   once: time-cost's pack test and the fallback share it. *)
let decide strategy st i ~baseline =
  if Problem.is_virtual (Mapping.problem st) i then None
  else
    match strategy with
    | Baseline -> None
    | Delta params -> decide_delta st i params
    | Timecost params -> decide_timecost st i ~baseline params

type stats = { stretched : int; packed : int; unchanged : int }

(* --- Main loop (Algorithm 1) -------------------------------------------- *)

(* Publishes one mapping round's decision counts under the strategy's
   metric names; a pack or stretch is precisely one redistribution
   eliminated (paper §III: the task reuses a predecessor's processor
   set). *)
let publish_stats strategy ~stretched ~packed ~unchanged =
  let strategy = strategy_name strategy in
  let bump kind n =
    if n > 0 then Metrics.add (Instr.map_strategy_counter ~strategy kind) n
  in
  bump `Stretched stretched;
  bump `Packed packed;
  bump `Unchanged unchanged;
  bump `Eliminated (stretched + packed)

let schedule_with_stats ?alloc problem strategy =
  check_params strategy;
  let alloc = match alloc with Some a -> a | None -> Hcpa.allocate problem in
  Trace.span ~cat:"core" ("map:" ^ strategy_name strategy) (fun () ->
  let bl = Cpa.bottom_levels problem ~alloc in
  let st = Mapping.create problem ~alloc in
  let dag = Problem.dag problem in
  let n = Problem.n_tasks problem in
  let unmapped_preds = Array.init n (fun i -> List.length (Dag.preds dag i)) in
  let ready = ref [ Problem.entry problem ] in
  let stretched = ref 0 and packed = ref 0 and unchanged = ref 0 in
  while !ready <> [] do
    let keyed = List.map (fun i -> (i, sort_key strategy st i)) !ready in
    let sorted =
      (* Primary: bottom level, decreasing. Secondary: strategy key,
         increasing. Stable, so equal tasks keep ready-list order. *)
      List.stable_sort
        (fun (i, ki) (j, kj) ->
          match compare bl.(j) bl.(i) with 0 -> compare ki kj | c -> c)
        keyed
    in
    let next_ready = ref [] in
    List.iter
      (fun (i, _) ->
        let np = Mapping.alloc st i in
        let baseline = lazy (Mapping.baseline_choice st i) in
        let set =
          match decide strategy st i ~baseline with
          | Some procs ->
              if Procset.size procs > np then incr stretched
              else if Procset.size procs < np then incr packed
              else incr unchanged;
              procs
          | None ->
              incr unchanged;
              Lazy.force baseline
        in
        ignore (Mapping.commit st i set);
        List.iter
          (fun (succ, _) ->
            unmapped_preds.(succ) <- unmapped_preds.(succ) - 1;
            if unmapped_preds.(succ) = 0 then next_ready := succ :: !next_ready)
          (Dag.succs dag i))
      sorted;
    ready := List.rev !next_ready
  done;
  publish_stats strategy ~stretched:!stretched ~packed:!packed
    ~unchanged:!unchanged;
  Problem.publish_metrics problem;
  ( Mapping.to_schedule st,
    { stretched = !stretched; packed = !packed; unchanged = !unchanged } ))

let schedule ?alloc problem strategy =
  fst (schedule_with_stats ?alloc problem strategy)
