(* Tests for rats_core: problem bundling, CPA/HCPA allocation, mapping,
   RATS strategies, schedules and simulated evaluation. *)

module Problem = Rats_core.Problem
module Cpa = Rats_core.Cpa
module Hcpa = Rats_core.Hcpa
module Mapping = Rats_core.Mapping
module Schedule = Rats_core.Schedule
module Rats = Rats_core.Rats
module Evaluate = Rats_core.Evaluate
module Algorithms = Rats_core.Algorithms
module Dag = Rats_dag.Dag
module Task = Rats_dag.Task
module Procset = Rats_util.Procset
module Cluster = Rats_platform.Cluster
module Suite = Rats_daggen.Suite
module Shape = Rats_daggen.Shape

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

let mk_task ?(m = 1e6) ?(a = 100.) ?(alpha = 0.1) id name =
  Task.make ~id ~name ~data_elements:m ~flop:(a *. m) ~alpha

(* A 4-task chain with data-carrying edges. *)
let chain_dag () =
  let b = Dag.Builder.create () in
  List.iteri (fun i n -> Dag.Builder.add_task b (mk_task i n))
    [ "a"; "b"; "c"; "d" ];
  List.iter (fun (s, d) -> Dag.Builder.add_edge b ~src:s ~dst:d ~bytes:8e6)
    [ (0, 1); (1, 2); (2, 3) ];
  Dag.Builder.build b

(* Fork: entry -> k parallel tasks -> exit (virtual entry/exit added). *)
let fork_dag k =
  let b = Dag.Builder.create () in
  for i = 0 to k - 1 do
    Dag.Builder.add_task b (mk_task i (Printf.sprintf "w%d" i))
  done;
  Dag.ensure_single_entry_exit (Dag.Builder.build b)

let chain_problem () = Problem.make ~dag:(chain_dag ()) ~cluster:Cluster.chti

(* Representative suite configurations for property-style checks. *)
let sample_configs =
  [
    ( { Suite.spec =
          Suite.Layered
            { n_tasks = 25;
              shape = Shape.make ~width:0.5 ~regularity:0.8 ~density:0.5 () };
        sample = 0 },
      Cluster.grillon );
    ( { Suite.spec =
          Suite.Irregular
            { n_tasks = 30;
              shape =
                Shape.make ~width:0.5 ~regularity:0.2 ~density:0.8 ~jump:2 () };
        sample = 1 },
      Cluster.chti );
    ( { Suite.spec = Suite.Fft { k = 4 }; sample = 2 }, Cluster.grelon );
    ( { Suite.spec = Suite.Strassen; sample = 3 }, Cluster.grillon );
  ]

let sample_problems () =
  List.map
    (fun (config, cluster) ->
      (Suite.name config, Problem.make ~dag:(Suite.generate config) ~cluster))
    sample_configs

let all_strategies =
  [
    Rats.Baseline;
    Rats.Delta Rats.naive_delta;
    Rats.Delta { Rats.mindelta = 0.; maxdelta = 1. };
    Rats.Timecost Rats.naive_timecost;
    Rats.Timecost { Rats.minrho = 0.8; packing = false };
  ]

(* --- Problem -------------------------------------------------------------- *)

let test_problem_validation () =
  let dag = fork_dag 3 in
  ignore (Problem.make ~dag ~cluster:Cluster.chti);
  let b = Dag.Builder.create () in
  Dag.Builder.add_task b (mk_task 0 "a");
  Dag.Builder.add_task b (mk_task 1 "b");
  let two_entries = Dag.Builder.build b in
  Alcotest.check_raises "two entries rejected"
    (Invalid_argument
       "Problem.make: DAG must have a single entry and exit (use \
        Dag.ensure_single_entry_exit)") (fun () ->
      ignore (Problem.make ~dag:two_entries ~cluster:Cluster.chti))

let test_problem_costs () =
  let p = chain_problem () in
  let speed = Cluster.chti.Cluster.speed in
  checkf "task time" (1e8 /. speed *. (0.1 +. (0.9 /. 2.)))
    (Problem.task_time p 0 ~procs:2);
  checkf "work = p x time"
    (2. *. Problem.task_time p 0 ~procs:2)
    (Problem.task_work p 0 ~procs:2);
  checkf "edge estimate" (1e-4 +. (8e6 /. 1.25e8)) (Problem.edge_cost_estimate p 8e6);
  checkf "zero bytes free" 0. (Problem.edge_cost_estimate p 0.)

let test_problem_timing_table () =
  (* Problem serves T(t,p)/ω(t,p) from its memoized table; the values must
     be bit-identical to the direct Amdahl computation, inside the table's
     range and beyond it (direct fallback). *)
  let p = chain_problem () in
  let speed = Cluster.chti.Cluster.speed in
  let ok = ref true in
  for i = 0 to Problem.n_tasks p - 1 do
    let task = Dag.task (Problem.dag p) i in
    for procs = 1 to Problem.n_procs p + 2 do
      if
        Problem.task_time p i ~procs <> Task.time task ~speed ~procs
        || Problem.task_work p i ~procs <> Task.work task ~speed ~procs
      then ok := false
    done
  done;
  Alcotest.(check bool) "bit-identical to Task.time/work" true !ok

let test_problem_entry_exit () =
  let p = chain_problem () in
  check Alcotest.int "entry" 0 (Problem.entry p);
  check Alcotest.int "exit" 3 (Problem.exit_task p);
  Alcotest.(check bool) "chain tasks not virtual" false (Problem.is_virtual p 1)

(* --- CPA / HCPA allocation ------------------------------------------------ *)

let test_cpa_bounds () =
  List.iter
    (fun (name, p) ->
      let alloc = Cpa.allocate p in
      Array.iteri
        (fun i np ->
          Alcotest.(check bool) (name ^ ": np in [1, P]") true
            (np >= 1 && np <= Problem.n_procs p);
          if Problem.is_virtual p i then
            check Alcotest.int (name ^ ": virtual stays at 1") 1 np)
        alloc)
    (sample_problems ())

let test_cpa_cap_respected () =
  List.iter
    (fun (name, p) ->
      let alloc = Cpa.allocate_with p ~max_per_task:3 in
      Array.iter
        (fun np -> Alcotest.(check bool) (name ^ ": capped") true (np <= 3))
        alloc)
    (sample_problems ())

let test_cpa_allocates_on_chain () =
  (* A chain's critical path is everything; C-inf starts above W, so CPA
     must grow allocations beyond 1. *)
  let p = chain_problem () in
  let alloc = Cpa.allocate p in
  Alcotest.(check bool) "grew beyond 1" true (Array.exists (fun n -> n > 1) alloc)

let test_cpa_stop_condition () =
  List.iter
    (fun (name, p) ->
      let alloc = Cpa.allocate p in
      let c_inf =
        (* computation-only, as used by the allocation loop *)
        let bl =
          Dag.bottom_levels (Problem.dag p)
            ~task_cost:(fun i -> Problem.task_time p i ~procs:alloc.(i))
            ~edge_cost:(fun _ _ _ -> 0.)
        in
        bl.(Problem.entry p)
      in
      let w = Cpa.average_area p ~alloc ~area_procs:(Problem.n_procs p) in
      let all_capped = Array.for_all (fun np -> np >= Problem.n_procs p) alloc in
      Alcotest.(check bool)
        (name ^ ": stopped because C-inf <= W or saturated") true
        (c_inf <= w +. 1e-9 || not all_capped))
    (sample_problems ())

let test_cpa_validation () =
  Alcotest.check_raises "bad cap"
    (Invalid_argument "Cpa.allocate_with: max_per_task < 1") (fun () ->
      ignore (Cpa.allocate_with (chain_problem ()) ~max_per_task:0))

let test_hcpa_chain_parallelism () =
  let p = chain_problem () in
  Alcotest.(check (float 1e-6)) "chain has parallelism 1" 1.
    (Hcpa.average_parallelism p);
  check Alcotest.int "cap is full cluster" (Problem.n_procs p) (Hcpa.max_per_task p)

let test_hcpa_fork_parallelism () =
  (* k identical independent tasks: average parallelism approximately k. *)
  let p = Problem.make ~dag:(fork_dag 8) ~cluster:Cluster.grillon in
  let a = Hcpa.average_parallelism p in
  Alcotest.(check bool) "close to k" true (a > 7.5 && a <= 8.5);
  let cap = Hcpa.max_per_task p in
  check Alcotest.int "fair share" (int_of_float (ceil (47. /. a))) cap

let test_hcpa_alloc_obeys_cap () =
  List.iter
    (fun (name, p) ->
      let cap = Hcpa.max_per_task p in
      Array.iter
        (fun np -> Alcotest.(check bool) (name ^ ": within cap") true (np <= cap))
        (Hcpa.allocate p))
    (sample_problems ())

(* The CPA loop as it was before it kept state across refinements: every
   refinement recomputes the computation-only critical path and Σω from
   scratch. The oracle for [Cpa.allocate_capped], which must reach the same
   allocation through the same number of refinements. *)
let oracle_allocate_capped problem ~cap =
  let area_procs = Problem.n_procs problem in
  let cap i = min (cap i) area_procs in
  let refinements = ref 0 in
  let alloc = Array.make (Problem.n_tasks problem) 1 in
  let continue = ref true in
  while !continue do
    let path, c_inf =
      Dag.critical_path (Problem.dag problem)
        ~task_cost:(fun i -> Problem.task_time problem i ~procs:alloc.(i))
        ~edge_cost:(fun _ _ _ -> 0.)
    in
    let w = Cpa.average_area problem ~alloc ~area_procs in
    if c_inf <= w then continue := false
    else begin
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
  (alloc, !refinements)

(* [Cpa.allocate_capped] against the oracle, allocation and refinement
   count ([rats_alloc_refinements_total]); [None] when both agree. *)
let oracle_mismatch p ~cap =
  let counter = Rats_obs.Instr.alloc_refinements in
  let before = Rats_obs.Metrics.counter_value counter in
  let alloc = Cpa.allocate_capped p ~cap in
  let refinements = Rats_obs.Metrics.counter_value counter - before in
  let want, want_refinements = oracle_allocate_capped p ~cap in
  if alloc = want && refinements = want_refinements then None
  else
    Some
      (Printf.sprintf "%d refinements, oracle %d%s" refinements want_refinements
         (if alloc <> want then ", allocations differ" else ""))

(* A suite DAG of any kind with 10-200 tasks, drawn from one integer. *)
let suite_config_of_int k =
  let pick l i = List.nth l (i mod List.length l) in
  let shape jump =
    Shape.make ~width:(pick [ 0.2; 0.5; 0.8 ] k)
      ~density:(pick [ 0.2; 0.8 ] (k / 3))
      ~regularity:(pick [ 0.2; 0.8 ] (k / 7)) ~jump ()
  in
  let n_tasks = 10 + (k / 4 mod 191) in
  let spec =
    match k mod 4 with
    | 0 -> Suite.Layered { n_tasks; shape = shape 1 }
    | 1 -> Suite.Irregular { n_tasks; shape = shape (pick [ 1; 2; 4 ] (k / 11)) }
    | 2 -> Suite.Fft { k = pick [ 4; 8; 16 ] (k / 4) }
    | _ -> Suite.Strassen
  in
  { Suite.spec; sample = k mod 5 }

let flat_cluster p =
  Cluster.make ~name:(Printf.sprintf "flat%d" p)
    ~topology:(Rats_platform.Topology.Flat p) ~speed_gflops:3.379 ()

let qcheck_cpa_matches_oracle =
  QCheck.Test.make ~count:150
    ~name:"cpa allocation equals the from-scratch loop (hcpa and mcpa caps)"
    QCheck.(triple (int_range 0 100_000) (int_range 0 3) bool)
    (fun (k, pi, level_caps) ->
      let config = suite_config_of_int k in
      let cluster =
        match pi with
        | 0 -> flat_cluster 1
        | 1 -> Cluster.chti
        | 2 -> Cluster.grillon
        | _ -> Cluster.grelon
      in
      let p = Problem.make ~dag:(Suite.generate config) ~cluster in
      let cap =
        if level_caps then
          let caps = Rats_core.Mcpa.level_caps p in
          fun i -> caps.(i)
        else
          let c = Hcpa.max_per_task p in
          fun _ -> c
      in
      match oracle_mismatch p ~cap with
      | None -> true
      | Some msg ->
          QCheck.Test.fail_reportf "%s on %s: %s" (Suite.name config)
            cluster.Cluster.name msg)

(* Two identical tasks in a chain, beside [m] light independent ones: the
   chain is the critical path, its two tasks tie on gain whenever their
   allocations are equal, and the loop stops before the chain reaches P,
   so the earliest-wins rule decides the allocation. *)
let test_cpa_matches_oracle_on_ties () =
  for m = 1 to 12 do
    let b = Dag.Builder.create () in
    Dag.Builder.add_task b (mk_task ~a:400. 0 "a1");
    Dag.Builder.add_task b (mk_task ~a:400. 1 "a2");
    Dag.Builder.add_edge b ~src:0 ~dst:1 ~bytes:8e6;
    for i = 2 to m + 1 do
      Dag.Builder.add_task b (mk_task ~a:(20. *. float_of_int i) i "light")
    done;
    let dag = Dag.ensure_single_entry_exit (Dag.Builder.build b) in
    List.iter
      (fun cluster ->
        let p = Problem.make ~dag ~cluster in
        match oracle_mismatch p ~cap:(fun _ -> Problem.n_procs p) with
        | None -> ()
        | Some msg -> Alcotest.failf "m = %d on %s: %s" m cluster.Cluster.name msg)
      [ Cluster.chti; Cluster.grillon; Cluster.grelon ]
  done

(* --- Mapping -------------------------------------------------------------- *)

let test_mapping_earliest_set () =
  let p = chain_problem () in
  let st = Mapping.create p ~alloc:[| 2; 2; 2; 2 |] in
  Alcotest.(check (list int)) "lowest indices when all idle" [ 0; 1 ]
    (Procset.to_list (Mapping.earliest_set st 2))

(* [earliest_set] and [from_pred_set] against a full sort of (availability,
   index), with each processor's availability recomputed from the entries
   committed so far. Random commits on random sets leave many ties. *)
let qcheck_mapping_earliest_sets =
  QCheck.Test.make ~count:100 ~name:"earliest sets equal a full sort"
    QCheck.(pair (int_range 0 100_000) (int_range 0 3))
    (fun (seed, ci) ->
      let rng = Rats_util.Rng.create seed in
      let cluster = [| Cluster.chti; Cluster.grillon; Cluster.grelon; flat_cluster 3 |].(ci) in
      let p = Problem.make ~dag:(Suite.generate (suite_config_of_int seed)) ~cluster in
      let n_procs = Problem.n_procs p in
      let st = Mapping.create p ~alloc:(Array.make (Problem.n_tasks p) 1) in
      (* Latest estimated finish of a committed entry on each processor. *)
      let avail = Array.make n_procs 0. in
      let earliest ~pool ~exclude np =
        List.filter (fun q -> not (Procset.mem q exclude)) (Procset.to_list pool)
        |> List.map (fun q -> (avail.(q), q))
        |> List.sort compare
        |> List.filteri (fun r _ -> r < np)
        |> List.map snd |> Procset.of_list
      in
      let random_set () =
        Procset.of_list
          (List.init (1 + Rats_util.Rng.int rng n_procs) (fun _ ->
               Rats_util.Rng.int rng n_procs))
      in
      let all = Cluster.all_procs cluster in
      Array.for_all
        (fun i ->
          let np = 1 + Rats_util.Rng.int rng n_procs in
          let pred_procs = random_set () in
          let sz = Procset.size pred_procs in
          let want_from_pred =
            if sz = np then pred_procs
            else if sz > np then earliest ~pool:pred_procs ~exclude:Procset.empty np
            else
              Procset.union pred_procs (earliest ~pool:all ~exclude:pred_procs (np - sz))
          in
          let ok =
            Procset.equal (Mapping.earliest_set st np)
              (earliest ~pool:all ~exclude:Procset.empty np)
            && Procset.equal (Mapping.from_pred_set st ~pred_procs np) want_from_pred
          in
          let e = Mapping.commit st i (random_set ()) in
          Procset.iter
            (fun q -> avail.(q) <- Float.max avail.(q) e.Schedule.est_finish)
            e.Schedule.procs;
          ok)
        (Dag.topological_order (Problem.dag p)))

(* A repeated estimate on the same set must see a commit made in between. *)
let test_mapping_estimate_after_commit () =
  let p = Problem.make ~dag:(fork_dag 2) ~cluster:Cluster.chti in
  let st = Mapping.create p ~alloc:(Array.make (Problem.n_tasks p) 1) in
  ignore (Mapping.commit st (Problem.entry p) (Procset.of_list [ 0 ]));
  let set = Procset.of_list [ 0; 1 ] in
  let before, _ = Mapping.estimate st 0 set in
  let e = Mapping.commit st 1 (Procset.of_list [ 1 ]) in
  let after, _ = Mapping.estimate st 0 set in
  checkf "idle set" 0. before;
  checkf "waits for the committed task" e.Schedule.est_finish after

let test_mapping_commit_updates_avail () =
  let p = chain_problem () in
  let st = Mapping.create p ~alloc:[| 2; 2; 2; 2 |] in
  let e0 = Mapping.commit st 0 (Procset.of_list [ 0; 1 ]) in
  checkf "starts at zero" 0. e0.Schedule.est_start;
  (* Processors 0,1 are now busy until e0 finishes: the earliest pair must
     avoid them. *)
  Alcotest.(check (list int)) "avoids busy procs" [ 2; 3 ]
    (Procset.to_list (Mapping.earliest_set st 2))

let test_mapping_estimate_respects_data () =
  let p = chain_problem () in
  let st = Mapping.create p ~alloc:[| 2; 2; 2; 2 |] in
  let e0 = Mapping.commit st 0 (Procset.of_list [ 0; 1 ]) in
  (* Same set: no redistribution, can start right at the predecessor's end. *)
  let start_same, _ = Mapping.estimate st 1 (Procset.of_list [ 0; 1 ]) in
  checkf "same set starts at pred finish" e0.Schedule.est_finish start_same;
  (* Disjoint set: start delayed by the redistribution estimate. *)
  let start_other, _ = Mapping.estimate st 1 (Procset.of_list [ 2; 3 ]) in
  Alcotest.(check bool) "redistribution delays start" true
    (start_other > e0.Schedule.est_finish)

let test_mapping_from_pred_set () =
  let p = chain_problem () in
  let st = Mapping.create p ~alloc:[| 2; 2; 2; 2 |] in
  let pred = Procset.of_list [ 4; 5; 6 ] in
  Alcotest.(check (list int)) "same size reuses" [ 4; 5; 6 ]
    (Procset.to_list (Mapping.from_pred_set st ~pred_procs:pred 3));
  check Alcotest.int "shrinks" 2
    (Procset.size (Mapping.from_pred_set st ~pred_procs:pred 2));
  let grown = Mapping.from_pred_set st ~pred_procs:pred 5 in
  check Alcotest.int "grows" 5 (Procset.size grown);
  Alcotest.(check bool) "keeps the anchor" true (Procset.subset pred grown)

let test_mapping_unmapped_errors () =
  let p = chain_problem () in
  let st = Mapping.create p ~alloc:[| 1; 1; 1; 1 |] in
  Alcotest.check_raises "entry of unmapped"
    (Invalid_argument "Mapping.entry: task not mapped") (fun () ->
      ignore (Mapping.entry st 0));
  Alcotest.check_raises "estimate needs mapped preds"
    (Invalid_argument "Mapping.estimate: predecessor not mapped") (fun () ->
      ignore (Mapping.estimate st 1 (Procset.of_list [ 0 ])));
  Alcotest.check_raises "incomplete schedule"
    (Invalid_argument "Mapping.to_schedule: task 0 unmapped") (fun () ->
      ignore (Mapping.to_schedule st))

let test_mapping_create_validation () =
  let p = chain_problem () in
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Mapping.create: allocation size mismatch") (fun () ->
      ignore (Mapping.create p ~alloc:[| 1; 1 |]))

(* --- Schedule ------------------------------------------------------------- *)

let test_schedule_accessors () =
  let p = chain_problem () in
  let s = Rats.schedule p Rats.Baseline in
  check Alcotest.int "n_tasks" 4 (Schedule.n_tasks s);
  let exit_entry = Schedule.entry s 3 in
  checkf "makespan is exit finish" exit_entry.Schedule.est_finish
    (Schedule.makespan_estimated s);
  let alloc = Schedule.allocation s in
  Array.iteri
    (fun i np -> check Alcotest.int "allocation matches procs" np
        (Procset.size (Schedule.entry s i).Schedule.procs))
    alloc

let test_schedule_total_work () =
  let p = chain_problem () in
  let s = Rats.schedule p Rats.Baseline in
  let expected =
    Array.fold_left
      (fun acc e ->
        acc
        +. Problem.task_work p e.Schedule.task
             ~procs:(Procset.size e.Schedule.procs))
      0. (Schedule.entries s)
  in
  checkf "work sums task works" expected (Schedule.total_work s)

let test_schedule_validation () =
  let p = chain_problem () in
  let s = Rats.schedule p Rats.Baseline in
  let entries = Schedule.entries s in
  (* Tamper: shift one task before its predecessor finishes. *)
  let bad = Array.copy entries in
  let e = bad.(1) in
  let d = Problem.task_time p 1 ~procs:(Procset.size e.Schedule.procs) in
  bad.(1) <- { e with Schedule.est_start = 0.; est_finish = d };
  Alcotest.check_raises "precedence violation"
    (Invalid_argument "Schedule.make: precedence violated in estimates")
    (fun () -> ignore (Schedule.make p bad));
  (* Tamper: finish inconsistent with the Amdahl duration. *)
  let bad2 = Array.copy entries in
  bad2.(3) <- { bad2.(3) with Schedule.est_finish = bad2.(3).Schedule.est_finish +. 1. };
  Alcotest.check_raises "duration mismatch"
    (Invalid_argument "Schedule.make: finish inconsistent with Amdahl duration")
    (fun () -> ignore (Schedule.make p bad2))

(* --- RATS strategies -------------------------------------------------------- *)

let test_rats_param_validation () =
  let p = chain_problem () in
  Alcotest.check_raises "mindelta positive"
    (Invalid_argument "Rats: mindelta outside [-1, 0]") (fun () ->
      ignore (Rats.schedule p (Rats.Delta { Rats.mindelta = 0.1; maxdelta = 0.5 })));
  Alcotest.check_raises "minrho zero"
    (Invalid_argument "Rats: minrho outside (0, 1]") (fun () ->
      ignore (Rats.schedule p (Rats.Timecost { Rats.minrho = 0.; packing = true })));
  (* NaN and the infinities are outside every range. *)
  let refused strategy =
    match Rats.check_strategy strategy with Error _ -> true | Ok () -> false
  in
  List.iter
    (fun x ->
      let name = Printf.sprintf "%h refused" x in
      Alcotest.(check bool) ("mindelta " ^ name) true
        (refused (Rats.Delta { Rats.mindelta = x; maxdelta = 0.5 }));
      Alcotest.(check bool) ("maxdelta " ^ name) true
        (refused (Rats.Delta { Rats.mindelta = -0.5; maxdelta = x }));
      Alcotest.(check bool) ("minrho " ^ name) true
        (refused (Rats.Timecost { Rats.minrho = x; packing = true })))
    [ nan; infinity; neg_infinity ];
  Alcotest.(check bool) "range ends accepted" true
    (List.for_all
       (fun s -> Rats.check_strategy s = Ok ())
       [
         Rats.Baseline;
         Rats.Delta { Rats.mindelta = -1.; maxdelta = 0. };
         Rats.Delta { Rats.mindelta = 0.; maxdelta = 1e300 };
         Rats.Timecost { Rats.minrho = 1.; packing = false };
       ])

let test_rats_strategy_names () =
  Alcotest.(check string) "baseline" "hcpa" (Rats.strategy_name Rats.Baseline);
  Alcotest.(check string) "delta" "delta"
    (Rats.strategy_name (Rats.Delta Rats.naive_delta));
  Alcotest.(check string) "tc" "time-cost"
    (Rats.strategy_name (Rats.Timecost Rats.naive_timecost))

let test_baseline_keeps_allocation () =
  List.iter
    (fun (name, p) ->
      let alloc = Hcpa.allocate p in
      let s = Rats.schedule ~alloc p Rats.Baseline in
      Array.iteri
        (fun i np ->
          check Alcotest.int (name ^ ": baseline preserves np") np
            (Procset.size (Schedule.entry s i).Schedule.procs))
        alloc)
    (sample_problems ())

(* Every deviation from the HCPA allocation must be the exact processor set
   of a predecessor, within the delta bounds. *)
let test_delta_bounds_invariant () =
  let params = { Rats.mindelta = -0.5; maxdelta = 0.5 } in
  List.iter
    (fun (name, p) ->
      let alloc = Hcpa.allocate p in
      let s = Rats.schedule ~alloc p (Rats.Delta params) in
      let dag = Problem.dag p in
      Array.iteri
        (fun i np ->
          let procs = (Schedule.entry s i).Schedule.procs in
          let sz = Procset.size procs in
          if sz <> np then begin
            let matches_pred =
              List.exists
                (fun (pred, _) ->
                  Procset.equal procs (Schedule.entry s pred).Schedule.procs)
                (Dag.preds dag i)
            in
            Alcotest.(check bool) (name ^ ": reused a predecessor set") true
              matches_pred;
            let d = sz - np in
            let fnp = float_of_int np in
            Alcotest.(check bool) (name ^ ": within delta bounds") true
              (d <= int_of_float ((params.Rats.maxdelta *. fnp) +. 1e-9)
              && d >= -int_of_float ((-.params.Rats.mindelta *. fnp) +. 1e-9))
          end)
        alloc)
    (sample_problems ())

let test_timecost_no_packing_never_shrinks () =
  let params = { Rats.minrho = 0.5; packing = false } in
  List.iter
    (fun (name, p) ->
      let alloc = Hcpa.allocate p in
      let s = Rats.schedule ~alloc p (Rats.Timecost params) in
      Array.iteri
        (fun i np ->
          Alcotest.(check bool) (name ^ ": no shrink without packing") true
            (Procset.size (Schedule.entry s i).Schedule.procs >= np
            || Problem.is_virtual p i))
        alloc)
    (sample_problems ())

let test_timecost_stretch_respects_rho () =
  let params = { Rats.minrho = 0.7; packing = false } in
  List.iter
    (fun (name, p) ->
      let alloc = Hcpa.allocate p in
      let s = Rats.schedule ~alloc p (Rats.Timecost params) in
      Array.iteri
        (fun i np ->
          let sz = Procset.size (Schedule.entry s i).Schedule.procs in
          if sz > np then begin
            let rho =
              Problem.task_work p i ~procs:np /. Problem.task_work p i ~procs:sz
            in
            Alcotest.(check bool) (name ^ ": rho above threshold") true
              (rho >= params.Rats.minrho -. 1e-9)
          end)
        alloc)
    (sample_problems ())

let test_delta_zero_params_is_baseline () =
  (* mindelta = maxdelta = 0 forbids every allocation modification (the
     ready-list order may still differ, so sizes are the invariant). *)
  List.iter
    (fun (name, p) ->
      let alloc = Hcpa.allocate p in
      let s =
        Rats.schedule ~alloc p (Rats.Delta { Rats.mindelta = 0.; maxdelta = 0. })
      in
      Array.iteri
        (fun i np ->
          check Alcotest.int (name ^ ": allocation untouched") np
            (Procset.size (Schedule.entry s i).Schedule.procs))
        alloc)
    (sample_problems ())

let test_rats_deterministic () =
  List.iter
    (fun (name, p) ->
      List.iter
        (fun strategy ->
          let s1 = Rats.schedule p strategy and s2 = Rats.schedule p strategy in
          checkf (name ^ ": deterministic") (Schedule.makespan_estimated s1)
            (Schedule.makespan_estimated s2))
        all_strategies)
    (sample_problems ())

(* --- Evaluate ---------------------------------------------------------------- *)

let overlapping a b = a.(0) < b.(1) -. 1e-9 && b.(0) < a.(1) -. 1e-9

let test_evaluate_invariants () =
  List.iter
    (fun (name, p) ->
      List.iter
        (fun strategy ->
          let s = Rats.schedule p strategy in
          let r = Evaluate.run s in
          let n = Schedule.n_tasks s in
          (* All tasks ran, in finite time. *)
          for i = 0 to n - 1 do
            Alcotest.(check bool) (name ^ ": finite times") true
              (Float.is_finite r.Evaluate.starts.(i)
              && Float.is_finite r.Evaluate.finishes.(i)
              && r.Evaluate.starts.(i) >= 0.
              && r.Evaluate.finishes.(i) >= r.Evaluate.starts.(i))
          done;
          (* Makespan is the last finish. *)
          checkf (name ^ ": makespan = max finish")
            (Array.fold_left Float.max 0. r.Evaluate.finishes)
            r.Evaluate.makespan;
          (* Precedence: a successor starts no earlier than its predecessor
             finishes. *)
          let dag = Problem.dag p in
          for i = 0 to n - 1 do
            List.iter
              (fun (succ, _) ->
                Alcotest.(check bool) (name ^ ": precedence") true
                  (r.Evaluate.starts.(succ) >= r.Evaluate.finishes.(i) -. 1e-9))
              (Dag.succs dag i)
          done;
          (* Exclusivity: no two tasks overlap on a processor. *)
          let per_proc = Hashtbl.create 64 in
          for i = 0 to n - 1 do
            Procset.iter
              (fun q ->
                let span = [| r.Evaluate.starts.(i); r.Evaluate.finishes.(i) |] in
                let prev = Hashtbl.find_opt per_proc q |> Option.value ~default:[] in
                List.iter
                  (fun other ->
                    Alcotest.(check bool) (name ^ ": exclusive processors") false
                      (overlapping span other))
                  prev;
                Hashtbl.replace per_proc q (span :: prev))
              (Schedule.entry s i).Schedule.procs
          done)
        [ Rats.Baseline; Rats.Timecost Rats.naive_timecost ])
    (sample_problems ())

let test_evaluate_deterministic () =
  let _, p = List.hd (sample_problems ()) in
  let s = Rats.schedule p (Rats.Delta Rats.naive_delta) in
  let r1 = Evaluate.run s and r2 = Evaluate.run s in
  checkf "same makespan" r1.Evaluate.makespan r2.Evaluate.makespan;
  checkf "same traffic" r1.Evaluate.remote_bytes r2.Evaluate.remote_bytes

(* The simulated replays of fixed suite schedules, by cluster and strategy:
   the MD5 over the bits of every start, finish, paid span date and
   makespan, and the exact simulator work they cost. A rate that moves by
   one ulp changes a digest; one extra refresh or water-fill round changes
   a count. *)
let test_evaluate_replay_digests () =
  let module Metrics = Rats_obs.Metrics in
  let module Instr = Rats_obs.Instr in
  let shape ?jump width density regularity =
    Shape.make ~width ~density ~regularity ?jump ()
  in
  let configs =
    List.map
      (fun (spec, sample) -> { Suite.spec; sample })
      [
        (Suite.Layered { n_tasks = 20; shape = shape 0.5 0.5 0.5 }, 0);
        (Suite.Layered { n_tasks = 50; shape = shape 0.2 0.8 0.8 }, 1);
        (Suite.Layered { n_tasks = 30; shape = shape 0.8 0.2 0.5 }, 3);
        (Suite.Irregular { n_tasks = 30; shape = shape ~jump:2 0.5 0.2 0.2 }, 0);
        (Suite.Irregular { n_tasks = 50; shape = shape ~jump:4 0.8 0.8 0.2 }, 2);
        (Suite.Fft { k = 4 }, 0);
        (Suite.Fft { k = 8 }, 1);
        (Suite.Strassen, 0);
      ]
  in
  let counters =
    Instr.
      [
        sim_events;
        maxmin_inc_refreshes;
        maxmin_full_refreshes;
        maxmin_component_solves;
        maxmin_inc_iterations;
        maxmin_dirty_flows;
        maxmin_skipped_flows;
      ]
  in
  let replay cluster strategy =
    let before = List.map Metrics.counter_value counters in
    let buf = Buffer.create 4096 in
    let add x = Buffer.add_int64_le buf (Int64.bits_of_float x) in
    List.iter
      (fun config ->
        let p = Problem.make ~dag:(Suite.generate config) ~cluster in
        let r = Evaluate.run (Rats.schedule ~alloc:(Hcpa.allocate p) p strategy) in
        Array.iter add r.Evaluate.starts;
        Array.iter add r.Evaluate.finishes;
        List.iter
          (fun s ->
            add s.Evaluate.span_start;
            add s.Evaluate.span_finish)
          r.Evaluate.spans;
        add r.Evaluate.makespan)
      configs;
    ( Digest.to_hex (Digest.string (Buffer.contents buf)),
      List.map2 (fun c n -> Metrics.counter_value c - n) counters before )
  in
  List.iter
    (fun (cluster, strategy, want_digest, want_counts) ->
      let name = cluster.Cluster.name ^ " " ^ Rats.strategy_name strategy in
      let digest, counts = replay cluster strategy in
      check Alcotest.string (name ^ ": digest") want_digest digest;
      check Alcotest.(list int)
        (name ^ ": events, inc/full refreshes, solves, rounds, dirty/skipped flows")
        want_counts counts)
    [
      ( Cluster.grillon, Rats.Baseline, "adeeba0532d3d13e82a2a58653db919c",
        [ 11546; 1060; 2115; 3998; 40048; 721039; 15425 ] );
      ( Cluster.grillon, Rats.Delta Rats.naive_delta,
        "249f06964880b7db65809021478d763a",
        [ 6587; 95; 1013; 1656; 14948; 401422; 1503 ] );
      ( Cluster.grillon, Rats.Timecost Rats.naive_timecost,
        "b32d0524358ad6ff3492319e9cf1ed49",
        [ 9665; 318; 1134; 2551; 12156; 607529; 4323 ] );
      ( Cluster.grelon, Rats.Baseline, "8f719897cc6726d81670f2a79f7fef29",
        [ 27598; 769; 4117; 5341; 39591; 1408520; 29875 ] );
      ( Cluster.grelon, Rats.Delta Rats.naive_delta,
        "ec8c8ef4a21fb22cd1b6c60ff65de8ad",
        [ 12686; 26; 929; 1041; 6868; 642073; 1527 ] );
      ( Cluster.grelon, Rats.Timecost Rats.naive_timecost,
        "b9f65c9502fd06a4941b9d7779ac3ced",
        [ 19717; 102; 1440; 1852; 11191; 1113976; 5384 ] );
    ]

let test_evaluate_chain_same_set_no_traffic () =
  (* Force the whole chain onto one identical processor set: every
     redistribution is local, so no bytes cross the network. *)
  let p = chain_problem () in
  let st = Mapping.create p ~alloc:[| 2; 2; 2; 2 |] in
  let set = Procset.of_list [ 0; 1 ] in
  for i = 0 to 3 do
    ignore (Mapping.commit st i set)
  done;
  let r = Evaluate.run (Mapping.to_schedule st) in
  checkf "no remote traffic" 0. r.Evaluate.remote_bytes;
  check Alcotest.int "all redistributions avoided" 3 r.Evaluate.avoided;
  (* And the makespan is exactly the sum of the four execution times. *)
  let expected =
    List.fold_left (fun acc i -> acc +. Problem.task_time p i ~procs:2) 0.
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (float 1e-6)) "pure compute chain" expected r.Evaluate.makespan

let test_evaluate_counts_redistributions () =
  (* Two disjoint sets back to back: one paid redistribution per edge. *)
  let p = chain_problem () in
  let st = Mapping.create p ~alloc:[| 2; 2; 2; 2 |] in
  ignore (Mapping.commit st 0 (Procset.of_list [ 0; 1 ]));
  ignore (Mapping.commit st 1 (Procset.of_list [ 2; 3 ]));
  ignore (Mapping.commit st 2 (Procset.of_list [ 0; 1 ]));
  ignore (Mapping.commit st 3 (Procset.of_list [ 2; 3 ]));
  let r = Evaluate.run (Mapping.to_schedule st) in
  check Alcotest.int "three paid" 3 r.Evaluate.redistributions;
  check Alcotest.int "none avoided" 0 r.Evaluate.avoided;
  checkf "all bytes remote" (3. *. 8e6) r.Evaluate.remote_bytes

let test_evaluate_slower_than_estimate_under_contention () =
  (* The analytic estimates ignore contention, so simulation can only be
     later or equal on communication-heavy graphs. *)
  List.iter
    (fun (name, p) ->
      let s = Rats.schedule p Rats.Baseline in
      let r = Evaluate.run s in
      Alcotest.(check bool) (name ^ ": sim >= 0.5 x estimate") true
        (r.Evaluate.makespan >= 0.5 *. Schedule.makespan_estimated s))
    (sample_problems ())

(* --- Algorithms --------------------------------------------------------------- *)

let test_algorithms_consistency () =
  let _, p = List.hd (sample_problems ()) in
  let o = Algorithms.run p (Rats.Timecost Rats.naive_timecost) in
  checkf "work accessor" (Schedule.total_work o.Algorithms.schedule)
    (Algorithms.work o);
  checkf "makespan accessor" o.Algorithms.simulated.Evaluate.makespan
    (Algorithms.makespan o)

let test_algorithms_shared_alloc () =
  let _, p = List.hd (sample_problems ()) in
  let alloc = Hcpa.allocate p in
  let o1 = Algorithms.run ~alloc p Rats.Baseline in
  let o2 = Algorithms.run ~alloc p Rats.Baseline in
  checkf "same allocation, same result" (Algorithms.makespan o1)
    (Algorithms.makespan o2)


(* --- MCPA ------------------------------------------------------------------- *)

module Mcpa = Rats_core.Mcpa

let test_mcpa_level_caps () =
  (* fork of 8 tasks on chti (20 procs): virtual entry/exit levels have
     width 1 (cap 20), the worker level width 8 (cap 2). *)
  let p = Problem.make ~dag:(fork_dag 8) ~cluster:Cluster.chti in
  let caps = Mcpa.level_caps p in
  let workers = List.init 8 Fun.id in
  List.iter (fun i -> check Alcotest.int "worker cap" 2 caps.(i)) workers

let test_mcpa_alloc_fits_levels () =
  List.iter
    (fun (name, p) ->
      let caps = Mcpa.level_caps p in
      Array.iteri
        (fun i np ->
          Alcotest.(check bool) (name ^ ": below level cap") true (np <= caps.(i)))
        (Mcpa.allocate p))
    (sample_problems ())

let test_mcpa_levels_fit_concurrently () =
  (* The defining MCPA property: the sum of allocations in a level never
     exceeds the machine. *)
  List.iter
    (fun (name, p) ->
      let alloc = Mcpa.allocate p in
      let groups = Rats_dag.Dag.level_groups (Problem.dag p) in
      Array.iter
        (fun tasks ->
          let total = List.fold_left (fun acc i -> acc + alloc.(i)) 0 tasks in
          Alcotest.(check bool) (name ^ ": level fits machine") true
            (total <= Problem.n_procs p
            || List.length tasks > Problem.n_procs p))
        groups)
    (sample_problems ())

(* --- Reference allocations ---------------------------------------------------- *)

module Reference = Rats_core.Reference

let test_reference_data_parallel () =
  let p = chain_problem () in
  let s = Reference.data_parallel p in
  Array.iter
    (fun e ->
      check Alcotest.int "whole machine" (Problem.n_procs p)
        (Procset.size e.Schedule.procs))
    (Schedule.entries s);
  (* Everything runs on the same set: the simulation pays no redistribution. *)
  let r = Evaluate.run s in
  checkf "no traffic" 0. r.Evaluate.remote_bytes

let test_reference_task_parallel () =
  let p = chain_problem () in
  let s = Reference.task_parallel p in
  Array.iter
    (fun e -> check Alcotest.int "one proc" 1 (Procset.size e.Schedule.procs))
    (Schedule.entries s)

let test_reference_mixed_beats_corners_sometimes () =
  (* On a wide fork, pure data parallelism serializes the workers and pure
     task parallelism foregoes all speedup: mixed should beat at least one
     of them in every sample (usually both). *)
  List.iter
    (fun (name, p) ->
      let mixed =
        (Evaluate.run (Rats.schedule p (Rats.Timecost Rats.naive_timecost)))
          .Evaluate.makespan
      in
      let dp = (Evaluate.run (Reference.data_parallel p)).Evaluate.makespan in
      let tp = (Evaluate.run (Reference.task_parallel p)).Evaluate.makespan in
      Alcotest.(check bool) (name ^ ": mixed not dominated") true
        (mixed <= dp +. 1e-9 || mixed <= tp +. 1e-9))
    (sample_problems ())

(* --- Evaluate ablation flags --------------------------------------------------- *)

let test_evaluate_strict_replay_not_faster () =
  (* Scheduling anomalies allow strict order to win on a specific instance
     (different overlap of redistributions), but on aggregate head-of-line
     blocking must not help. *)
  let ratios =
    List.map
      (fun (_, p) ->
        let s = Rats.schedule p Rats.Baseline in
        let wc = (Evaluate.run ~work_conserving:true s).Evaluate.makespan in
        let strict = (Evaluate.run ~work_conserving:false s).Evaluate.makespan in
        strict /. wc)
      (sample_problems ())
  in
  let mean = Rats_util.Stats.mean (Array.of_list ratios) in
  Alcotest.(check bool) "strict not faster on average" true (mean >= 0.98);
  List.iter
    (fun r ->
      Alcotest.(check bool) "ratio in sane range" true (r > 0.5 && r < 20.))
    ratios

let test_evaluate_strict_deadlock_free () =
  (* Strict replay must still complete every task. *)
  List.iter
    (fun (name, p) ->
      List.iter
        (fun strategy ->
          let s = Rats.schedule p strategy in
          let r = Evaluate.run ~work_conserving:false s in
          Alcotest.(check bool) (name ^ ": completes") true
            (Float.is_finite r.Evaluate.makespan))
        [ Rats.Baseline; Rats.Timecost Rats.naive_timecost ])
    (sample_problems ())

let test_evaluate_placement_ablation () =
  (* Disabling the placement optimization can only increase (or keep) the
     remote traffic. *)
  List.iter
    (fun (name, p) ->
      let s = Rats.schedule p (Rats.Timecost Rats.naive_timecost) in
      let opt = Evaluate.run ~optimize_placement:true s in
      let nat = Evaluate.run ~optimize_placement:false s in
      Alcotest.(check bool) (name ^ ": optimized moves no more bytes") true
        (opt.Evaluate.remote_bytes <= nat.Evaluate.remote_bytes +. 1e-6))
    (sample_problems ())


let test_evaluate_spans () =
  (* Chain mapped on alternating sets: one span per edge, consistent with
     the task timeline and the remote byte count. *)
  let p = chain_problem () in
  let st = Mapping.create p ~alloc:[| 2; 2; 2; 2 |] in
  ignore (Mapping.commit st 0 (Procset.of_list [ 0; 1 ]));
  ignore (Mapping.commit st 1 (Procset.of_list [ 2; 3 ]));
  ignore (Mapping.commit st 2 (Procset.of_list [ 0; 1 ]));
  ignore (Mapping.commit st 3 (Procset.of_list [ 2; 3 ]));
  let r = Evaluate.run (Mapping.to_schedule st) in
  check Alcotest.int "three spans" 3 (List.length r.Evaluate.spans);
  List.iter
    (fun (s : Evaluate.span) ->
      checkf "starts at producer finish" r.Evaluate.finishes.(s.Evaluate.src_task)
        s.Evaluate.span_start;
      Alcotest.(check bool) "arrives before consumer starts" true
        (s.Evaluate.span_finish <= r.Evaluate.starts.(s.Evaluate.dst_task) +. 1e-9);
      checkf "full dataset remote" 8e6 s.Evaluate.span_bytes)
    r.Evaluate.spans;
  let total = List.fold_left (fun acc (s : Evaluate.span) -> acc +. s.Evaluate.span_bytes) 0. r.Evaluate.spans in
  checkf "spans account for all remote bytes" r.Evaluate.remote_bytes total


(* A schedule planned for a 10-processor share of chti (same links and
   speed, flat), for replaying on a grant of the full platform. *)
let share_schedule () =
  let share =
    Cluster.make ~name:"chti#10" ~topology:(Rats_platform.Topology.Flat 10)
      ~speed_gflops:4.311 ()
  in
  let dag = Suite.generate { Suite.spec = Suite.Fft { k = 4 }; sample = 1 } in
  Rats.schedule (Problem.make ~dag ~cluster:share) (Rats.Delta Rats.naive_delta)

let test_evaluate_start_on_grant () =
  (* Granted processors {10..19} of a fresh chti engine: flows cross the
     same links in the same relative order as on the private 10-processor
     engine, so every simulated float is bit-equal. *)
  let s = share_schedule () in
  let offline = Evaluate.run s in
  let eng = Rats_sim.Engine.create Cluster.chti in
  let got = ref None and streamed = ref [] in
  Evaluate.start eng ~grant:(Procset.range 10 10)
    ~on_redistribution:(fun span -> streamed := span :: !streamed)
    ~on_complete:(fun r ->
      if !got <> None then Alcotest.fail "on_complete fired twice";
      got := Some r)
    s;
  ignore (Rats_sim.Engine.run eng : float);
  match !got with
  | None -> Alcotest.fail "on_complete never fired"
  | Some r ->
      check Alcotest.bool "makespan bit-equal" true
        (r.Evaluate.makespan = offline.Evaluate.makespan);
      check Alcotest.bool "starts bit-equal" true
        (r.Evaluate.starts = offline.Evaluate.starts);
      check Alcotest.bool "finishes bit-equal" true
        (r.Evaluate.finishes = offline.Evaluate.finishes);
      check Alcotest.bool "remote bytes bit-equal" true
        (r.Evaluate.remote_bytes = offline.Evaluate.remote_bytes);
      check Alcotest.int "redistributions" offline.Evaluate.redistributions
        r.Evaluate.redistributions;
      check Alcotest.int "avoided" offline.Evaluate.avoided r.Evaluate.avoided;
      check Alcotest.bool "some spans" true (offline.Evaluate.spans <> []);
      check Alcotest.bool "spans bit-equal" true
        (r.Evaluate.spans = offline.Evaluate.spans);
      check Alcotest.bool "callback saw every span" true
        (List.sort compare !streamed = List.sort compare offline.Evaluate.spans)

let test_evaluate_start_disjoint_grants () =
  (* Two replays of the same schedule at once on disjoint halves of flat
     chti share no link, so neither may slow the other: both finish with
     the private-engine makespan. Flows mapped onto the wrong processors
     would contend and stretch it. *)
  let s = share_schedule () in
  let offline = Evaluate.run s in
  let eng = Rats_sim.Engine.create Cluster.chti in
  let makespans = ref [] in
  List.iter
    (fun lo ->
      Evaluate.start eng ~grant:(Procset.range lo 10)
        ~on_complete:(fun r -> makespans := r.Evaluate.makespan :: !makespans)
        s)
    [ 0; 10 ];
  ignore (Rats_sim.Engine.run eng : float);
  check Alcotest.int "both completed" 2 (List.length !makespans);
  List.iter
    (fun m ->
      check (Alcotest.float (1e-9 *. offline.Evaluate.makespan))
        "uncontended makespan" offline.Evaluate.makespan m)
    !makespans

let test_evaluate_start_grant_size () =
  let s = share_schedule () in
  let eng = Rats_sim.Engine.create Cluster.chti in
  match
    Evaluate.start eng ~grant:(Procset.range 0 9) ~on_complete:ignore s
  with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "wrong-size grant accepted"

let test_evaluate_start_task_hook () =
  let s = share_schedule () in
  let eng = Rats_sim.Engine.create Cluster.chti in
  let seen = Array.make (Schedule.n_tasks s) 0 in
  let completed = ref false in
  Evaluate.start eng ~grant:(Procset.range 0 10)
    ~on_task_finish:(fun task ->
      if !completed then Alcotest.fail "task finished after completion";
      seen.(task) <- seen.(task) + 1)
    ~on_complete:(fun _ -> completed := true)
    s;
  ignore (Rats_sim.Engine.run eng : float);
  check Alcotest.bool "completed" true !completed;
  Array.iteri
    (fun i k -> check Alcotest.int (Printf.sprintf "task %d hook" i) 1 k)
    seen

let test_schedule_stats () =
  List.iter
    (fun (name, p) ->
      let alloc = Hcpa.allocate p in
      (* Baseline never changes anything. *)
      let _, st = Rats.schedule_with_stats ~alloc p Rats.Baseline in
      check Alcotest.int (name ^ ": baseline stretches none") 0 st.Rats.stretched;
      check Alcotest.int (name ^ ": baseline packs none") 0 st.Rats.packed;
      check Alcotest.int (name ^ ": everything accounted") (Problem.n_tasks p)
        (st.Rats.stretched + st.Rats.packed + st.Rats.unchanged);
      (* Stretch-only delta never packs. *)
      let _, st =
        Rats.schedule_with_stats ~alloc p
          (Rats.Delta { Rats.mindelta = 0.; maxdelta = 1. })
      in
      check Alcotest.int (name ^ ": no packs when mindelta = 0") 0 st.Rats.packed;
      (* Stats agree with the schedule's final allocation. *)
      let s, st = Rats.schedule_with_stats ~alloc p (Rats.Delta Rats.naive_delta) in
      let grew = ref 0 and shrank = ref 0 in
      Array.iteri
        (fun i np ->
          let sz = Procset.size (Schedule.entry s i).Schedule.procs in
          if sz > np then incr grew else if sz < np then incr shrank)
        alloc;
      check Alcotest.int (name ^ ": stretched = grown sets") !grew st.Rats.stretched;
      check Alcotest.int (name ^ ": packed = shrunk sets") !shrank st.Rats.packed)
    (sample_problems ())

let () =
  Alcotest.run "rats_core"
    [
      ( "problem",
        [
          Alcotest.test_case "validation" `Quick test_problem_validation;
          Alcotest.test_case "costs" `Quick test_problem_costs;
          Alcotest.test_case "timing table" `Quick test_problem_timing_table;
          Alcotest.test_case "entry/exit" `Quick test_problem_entry_exit;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "cpa bounds" `Quick test_cpa_bounds;
          Alcotest.test_case "cpa cap" `Quick test_cpa_cap_respected;
          Alcotest.test_case "cpa grows chains" `Quick test_cpa_allocates_on_chain;
          Alcotest.test_case "cpa stop condition" `Quick test_cpa_stop_condition;
          Alcotest.test_case "cpa validation" `Quick test_cpa_validation;
          Alcotest.test_case "hcpa chain" `Quick test_hcpa_chain_parallelism;
          Alcotest.test_case "hcpa fork" `Quick test_hcpa_fork_parallelism;
          Alcotest.test_case "hcpa cap obeyed" `Quick test_hcpa_alloc_obeys_cap;
          Rats_test_support.Seeded.to_alcotest qcheck_cpa_matches_oracle;
          Alcotest.test_case "cpa oracle on tied gains" `Quick
            test_cpa_matches_oracle_on_ties;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "earliest set" `Quick test_mapping_earliest_set;
          Rats_test_support.Seeded.to_alcotest qcheck_mapping_earliest_sets;
          Alcotest.test_case "commit avail" `Quick test_mapping_commit_updates_avail;
          Alcotest.test_case "estimate after commit" `Quick
            test_mapping_estimate_after_commit;
          Alcotest.test_case "estimate data arrival" `Quick
            test_mapping_estimate_respects_data;
          Alcotest.test_case "from pred set" `Quick test_mapping_from_pred_set;
          Alcotest.test_case "unmapped errors" `Quick test_mapping_unmapped_errors;
          Alcotest.test_case "create validation" `Quick
            test_mapping_create_validation;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "accessors" `Quick test_schedule_accessors;
          Alcotest.test_case "total work" `Quick test_schedule_total_work;
          Alcotest.test_case "validation" `Quick test_schedule_validation;
        ] );
      ( "rats",
        [
          Alcotest.test_case "parameter validation" `Quick
            test_rats_param_validation;
          Alcotest.test_case "strategy names" `Quick test_rats_strategy_names;
          Alcotest.test_case "baseline keeps allocation" `Quick
            test_baseline_keeps_allocation;
          Alcotest.test_case "delta bounds invariant" `Quick
            test_delta_bounds_invariant;
          Alcotest.test_case "no packing never shrinks" `Quick
            test_timecost_no_packing_never_shrinks;
          Alcotest.test_case "stretch respects rho" `Quick
            test_timecost_stretch_respects_rho;
          Alcotest.test_case "zero delta = baseline" `Quick
            test_delta_zero_params_is_baseline;
          Alcotest.test_case "deterministic" `Quick test_rats_deterministic;
        ] );
      ( "evaluate",
        [
          Alcotest.test_case "invariants on samples" `Slow test_evaluate_invariants;
          Alcotest.test_case "deterministic" `Quick test_evaluate_deterministic;
          Alcotest.test_case "replay digests" `Quick test_evaluate_replay_digests;
          Alcotest.test_case "same-set chain is free" `Quick
            test_evaluate_chain_same_set_no_traffic;
          Alcotest.test_case "counts redistributions" `Quick
            test_evaluate_counts_redistributions;
          Alcotest.test_case "contention slows" `Quick
            test_evaluate_slower_than_estimate_under_contention;
          Alcotest.test_case "start on a grant" `Quick
            test_evaluate_start_on_grant;
          Alcotest.test_case "start disjoint grants" `Quick
            test_evaluate_start_disjoint_grants;
          Alcotest.test_case "start grant size" `Quick
            test_evaluate_start_grant_size;
          Alcotest.test_case "start task hook" `Quick
            test_evaluate_start_task_hook;
        ] );
      ( "algorithms",
        [
          Alcotest.test_case "consistency" `Quick test_algorithms_consistency;
          Alcotest.test_case "shared allocation" `Quick test_algorithms_shared_alloc;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "mcpa level caps" `Quick test_mcpa_level_caps;
          Alcotest.test_case "mcpa within caps" `Quick test_mcpa_alloc_fits_levels;
          Alcotest.test_case "mcpa concurrent levels" `Quick
            test_mcpa_levels_fit_concurrently;
          Alcotest.test_case "pure data parallel" `Quick
            test_reference_data_parallel;
          Alcotest.test_case "pure task parallel" `Quick
            test_reference_task_parallel;
          Alcotest.test_case "mixed vs corners" `Slow
            test_reference_mixed_beats_corners_sometimes;
          Alcotest.test_case "strict replay slower" `Slow
            test_evaluate_strict_replay_not_faster;
          Alcotest.test_case "strict replay completes" `Quick
            test_evaluate_strict_deadlock_free;
          Alcotest.test_case "placement ablation" `Quick
            test_evaluate_placement_ablation;
          Alcotest.test_case "redistribution spans" `Quick test_evaluate_spans;
          Alcotest.test_case "decision statistics" `Quick test_schedule_stats;
        ] );
    ]
