(* Tests for rats_dag: the moldable task model and the DAG structure. *)

module Task = Rats_dag.Task
module Dag = Rats_dag.Dag
module Rng = Rats_util.Rng

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let qcheck t = Rats_test_support.Seeded.to_alcotest t

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let speed = 1e9

let mk_task ?(m = 1e6) ?(a = 100.) ?(alpha = 0.1) id name =
  Task.make ~id ~name ~data_elements:m ~flop:(a *. m) ~alpha

(* --- Task ---------------------------------------------------------------- *)

let test_task_validation () =
  Alcotest.check_raises "negative data"
    (Invalid_argument "Task.make: negative data size") (fun () ->
      ignore (Task.make ~id:0 ~name:"x" ~data_elements:(-1.) ~flop:1. ~alpha:0.));
  Alcotest.check_raises "negative flop"
    (Invalid_argument "Task.make: negative flop") (fun () ->
      ignore (Task.make ~id:0 ~name:"x" ~data_elements:1. ~flop:(-1.) ~alpha:0.));
  Alcotest.check_raises "alpha > 1"
    (Invalid_argument "Task.make: alpha outside [0,1]") (fun () ->
      ignore (Task.make ~id:0 ~name:"x" ~data_elements:1. ~flop:1. ~alpha:1.5));
  List.iter
    (fun (what, msg, data_elements, flop, alpha) ->
      Alcotest.check_raises what (Invalid_argument msg) (fun () ->
          ignore (Task.make ~id:0 ~name:"x" ~data_elements ~flop ~alpha)))
    [
      ("infinite data", "Task.make: non-finite data size", infinity, 1., 0.);
      ("nan data", "Task.make: non-finite data size", nan, 1., 0.);
      ("infinite flop", "Task.make: non-finite flop", 1., infinity, 0.);
      ("nan flop", "Task.make: non-finite flop", 1., nan, 0.);
      ("nan alpha", "Task.make: alpha outside [0,1]", 1., 1., nan);
    ]

let test_task_seq_time () =
  let t = mk_task 0 "t" in
  checkf "flop / speed" 0.1 (Task.seq_time t ~speed)

let test_task_amdahl () =
  let t = mk_task ~alpha:0.2 0 "t" in
  let seq = Task.seq_time t ~speed in
  checkf "1 proc = seq" seq (Task.time t ~speed ~procs:1);
  checkf "4 procs" (seq *. (0.2 +. (0.8 /. 4.))) (Task.time t ~speed ~procs:4);
  Alcotest.(check bool) "bounded below by alpha" true
    (Task.time t ~speed ~procs:10000 > seq *. 0.2)

let qcheck_amdahl_monotone =
  QCheck.Test.make ~count:100 ~name:"execution time decreases with processors"
    QCheck.(pair (float_range 0. 0.9) (int_range 1 63))
    (fun (alpha, p) ->
      let t = mk_task ~alpha 0 "t" in
      Task.time t ~speed ~procs:(p + 1) <= Task.time t ~speed ~procs:p)

let qcheck_work_monotone =
  QCheck.Test.make ~count:100 ~name:"work grows with processors when alpha > 0"
    QCheck.(pair (float_range 0.01 0.9) (int_range 1 63))
    (fun (alpha, p) ->
      let t = mk_task ~alpha 0 "t" in
      Task.work t ~speed ~procs:(p + 1) > Task.work t ~speed ~procs:p)

let test_task_work_zero_alpha () =
  let t = mk_task ~alpha:0. 0 "t" in
  checkf "perfectly parallel work is constant"
    (Task.work t ~speed ~procs:1)
    (Task.work t ~speed ~procs:16)

let test_task_random_bounds () =
  let rng = Rng.create 11 in
  for i = 0 to 200 do
    let t = Task.random rng ~id:i ~name:"r" in
    Alcotest.(check bool) "m in [4M,121M]" true
      (t.Task.data_elements >= Task.min_elements
      && t.Task.data_elements <= Task.max_elements);
    let a = t.Task.flop /. t.Task.data_elements in
    Alcotest.(check bool) "a in [2^6,2^9]" true (a >= 64. && a <= 512.);
    Alcotest.(check bool) "alpha in [0,0.25]" true
      (t.Task.alpha >= 0. && t.Task.alpha <= 0.25)
  done

let test_task_virtual () =
  let v = Task.virtual_task ~id:3 ~name:"v" in
  Alcotest.(check bool) "virtual" true (Task.is_virtual v);
  checkf "no time" 0. (Task.time v ~speed ~procs:5);
  Alcotest.(check bool) "real task not virtual" false
    (Task.is_virtual (mk_task 0 "t"))

let test_task_data_bytes () =
  checkf "8 bytes per element" 8e6 (Task.data_bytes (mk_task 0 "t"))

let test_task_relabel () =
  let t = Task.relabel (mk_task 0 "t") ~id:9 in
  check Alcotest.int "new id" 9 t.Task.id

(* --- Dag builder --------------------------------------------------------- *)

let diamond () =
  (* 0 -> {1,2} -> 3, classic diamond. *)
  let b = Dag.Builder.create () in
  List.iteri (fun i name -> Dag.Builder.add_task b (mk_task i name))
    [ "a"; "b"; "c"; "d" ];
  Dag.Builder.add_edge b ~src:0 ~dst:1 ~bytes:8e6;
  Dag.Builder.add_edge b ~src:0 ~dst:2 ~bytes:8e6;
  Dag.Builder.add_edge b ~src:1 ~dst:3 ~bytes:8e6;
  Dag.Builder.add_edge b ~src:2 ~dst:3 ~bytes:8e6;
  Dag.Builder.build b

let test_builder_id_order () =
  let b = Dag.Builder.create () in
  Alcotest.check_raises "wrong first id"
    (Invalid_argument "Dag.Builder.add_task: expected id 0, got 1") (fun () ->
      Dag.Builder.add_task b (mk_task 1 "x"))

let test_builder_self_loop () =
  let b = Dag.Builder.create () in
  Dag.Builder.add_task b (mk_task 0 "a");
  Alcotest.check_raises "self loop"
    (Invalid_argument "Dag.Builder.add_edge: self loop") (fun () ->
      Dag.Builder.add_edge b ~src:0 ~dst:0 ~bytes:1.)

let test_builder_duplicate_edge () =
  let b = Dag.Builder.create () in
  Dag.Builder.add_task b (mk_task 0 "a");
  Dag.Builder.add_task b (mk_task 1 "b");
  Dag.Builder.add_edge b ~src:0 ~dst:1 ~bytes:1.;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Dag.Builder.add_edge: duplicate edge") (fun () ->
      Dag.Builder.add_edge b ~src:0 ~dst:1 ~bytes:2.)

let test_builder_bad_endpoint () =
  let b = Dag.Builder.create () in
  Dag.Builder.add_task b (mk_task 0 "a");
  Alcotest.check_raises "bad dst"
    (Invalid_argument "Dag.Builder.add_edge: bad dst") (fun () ->
      Dag.Builder.add_edge b ~src:0 ~dst:7 ~bytes:1.)

let test_builder_non_finite_weight () =
  List.iter
    (fun bytes ->
      let b = Dag.Builder.create () in
      Dag.Builder.add_task b (mk_task 0 "a");
      Dag.Builder.add_task b (mk_task 1 "b");
      Alcotest.check_raises (Printf.sprintf "%g bytes" bytes)
        (Invalid_argument "Dag.Builder.add_edge: non-finite weight") (fun () ->
          Dag.Builder.add_edge b ~src:0 ~dst:1 ~bytes))
    [ infinity; nan ]

let test_builder_cycle () =
  let b = Dag.Builder.create () in
  List.iteri (fun i n -> Dag.Builder.add_task b (mk_task i n)) [ "a"; "b"; "c" ];
  Dag.Builder.add_edge b ~src:0 ~dst:1 ~bytes:1.;
  Dag.Builder.add_edge b ~src:1 ~dst:2 ~bytes:1.;
  Dag.Builder.add_edge b ~src:2 ~dst:0 ~bytes:1.;
  Alcotest.check_raises "cycle"
    (Failure "Dag.Builder.build: graph contains a cycle") (fun () ->
      ignore (Dag.Builder.build b))

(* --- Dag queries ---------------------------------------------------------- *)

let test_dag_counts () =
  let g = diamond () in
  check Alcotest.int "tasks" 4 (Dag.n_tasks g);
  check Alcotest.int "edges" 4 (Dag.n_edges g);
  check Alcotest.int "edge list length" 4 (List.length (Dag.edges g))

let test_dag_adjacency () =
  let g = diamond () in
  Alcotest.(check (list (pair int (float 0.)))) "succs of 0"
    [ (1, 8e6); (2, 8e6) ] (Dag.succs g 0);
  Alcotest.(check (list (pair int (float 0.)))) "preds of 3"
    [ (1, 8e6); (2, 8e6) ] (Dag.preds g 3);
  Alcotest.(check (option (float 0.))) "edge bytes" (Some 8e6)
    (Dag.edge_bytes g ~src:0 ~dst:1);
  Alcotest.(check (option (float 0.))) "missing edge" None
    (Dag.edge_bytes g ~src:1 ~dst:2)

let test_dag_entries_exits () =
  let g = diamond () in
  Alcotest.(check (list int)) "entries" [ 0 ] (Dag.entries g);
  Alcotest.(check (list int)) "exits" [ 3 ] (Dag.exits g)

let test_dag_topological_order () =
  let g = diamond () in
  Alcotest.(check (list int)) "topo order" [ 0; 1; 2; 3 ]
    (Array.to_list (Dag.topological_order g))

(* A DAG on [n] tasks whose ids are a shuffle of a random forward order,
   so that id order is rarely topological, plus its edge list. *)
let shuffled_dag rng n =
  let perm = Array.init n Fun.id in
  Rng.shuffle rng perm;
  let b = Dag.Builder.create () in
  for i = 0 to n - 1 do
    Dag.Builder.add_task b (mk_task i (string_of_int i))
  done;
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Rng.int rng 4 = 0 then begin
        Dag.Builder.add_edge b ~src:perm.(i) ~dst:perm.(j) ~bytes:1.;
        edges := (perm.(i), perm.(j)) :: !edges
      end
    done
  done;
  (b, !edges)

(* Kahn's algorithm the slow way: repeatedly output the smallest id whose
   predecessors are all out. *)
let reference_order n edges =
  let out = Array.make n false in
  List.init n (fun _ ->
      let ready u =
        (not out.(u))
        && List.for_all (fun (src, dst) -> dst <> u || out.(src)) edges
      in
      let u = List.find ready (List.init n Fun.id) in
      out.(u) <- true;
      u)

let qcheck_topological_order =
  QCheck.Test.make ~count:200
    ~name:"stored topological order is min-id-first Kahn"
    QCheck.(pair (int_range 1 40) (int_range 0 100_000))
    (fun (n, seed) ->
      let b, edges = shuffled_dag (Rng.create seed) n in
      let g = Dag.Builder.build b in
      let order = Dag.topological_order g in
      let want = reference_order n edges in
      (* The result is a copy: scribbling on it leaves the DAG intact. *)
      Array.fill order 0 n 0;
      Array.to_list (Dag.topological_order g) = want)

let qcheck_cycle_rejected =
  QCheck.Test.make ~count:100 ~name:"a back edge makes build fail"
    QCheck.(pair (int_range 2 30) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let b, edges = shuffled_dag rng n in
      (* The reverse of an existing edge closes a two-task cycle. *)
      let src, dst =
        match edges with
        | e :: _ -> e
        | [] ->
            Dag.Builder.add_edge b ~src:0 ~dst:1 ~bytes:1.;
            (0, 1)
      in
      Dag.Builder.add_edge b ~src:dst ~dst:src ~bytes:1.;
      match Dag.Builder.build b with
      | _ -> false
      | exception Failure msg -> msg = "Dag.Builder.build: graph contains a cycle")

let test_dag_depths () =
  let g = diamond () in
  Alcotest.(check (list int)) "depths" [ 0; 1; 1; 2 ]
    (Array.to_list (Dag.depths g));
  let groups = Dag.level_groups g in
  check Alcotest.int "levels" 3 (Array.length groups);
  Alcotest.(check (list int)) "middle level" [ 1; 2 ] groups.(1)

let test_dag_bottom_levels () =
  let g = diamond () in
  let bl = Dag.bottom_levels g ~task_cost:(fun _ -> 1.) ~edge_cost:(fun _ _ _ -> 0.) in
  Alcotest.(check (array (float 1e-9))) "bottom levels" [| 3.; 2.; 2.; 1. |] bl

let test_dag_bottom_levels_with_edges () =
  let g = diamond () in
  let bl =
    Dag.bottom_levels g ~task_cost:(fun _ -> 1.)
      ~edge_cost:(fun _ _ bytes -> bytes /. 8e6)
  in
  checkf "entry bl" 5. bl.(0)

let test_dag_top_levels () =
  let g = diamond () in
  let tl = Dag.top_levels g ~task_cost:(fun _ -> 1.) ~edge_cost:(fun _ _ _ -> 0.) in
  Alcotest.(check (array (float 1e-9))) "top levels" [| 0.; 1.; 1.; 2. |] tl

let test_dag_critical_path () =
  let b = Dag.Builder.create () in
  List.iteri (fun i n -> Dag.Builder.add_task b (mk_task i n))
    [ "a"; "b"; "c"; "d" ];
  Dag.Builder.add_edge b ~src:0 ~dst:1 ~bytes:0.;
  Dag.Builder.add_edge b ~src:0 ~dst:2 ~bytes:0.;
  Dag.Builder.add_edge b ~src:1 ~dst:3 ~bytes:0.;
  Dag.Builder.add_edge b ~src:2 ~dst:3 ~bytes:0.;
  let g = Dag.Builder.build b in
  let cost = function 2 -> 10. | _ -> 1. in
  let path, len = Dag.critical_path g ~task_cost:cost ~edge_cost:(fun _ _ _ -> 0.) in
  Alcotest.(check (list int)) "path through heavy node" [ 0; 2; 3 ] path;
  checkf "length" 12. len

let test_dag_total_cost () =
  let g = diamond () in
  checkf "sum" 4. (Dag.total_cost g ~task_cost:(fun _ -> 1.))

let test_ensure_single_entry_exit_noop () =
  let g = diamond () in
  let g' = Dag.ensure_single_entry_exit g in
  check Alcotest.int "unchanged" (Dag.n_tasks g) (Dag.n_tasks g')

let test_ensure_single_entry_exit_adds () =
  let b = Dag.Builder.create () in
  List.iteri (fun i n -> Dag.Builder.add_task b (mk_task i n))
    [ "s1"; "s2"; "t1"; "t2" ];
  Dag.Builder.add_edge b ~src:0 ~dst:2 ~bytes:1.;
  Dag.Builder.add_edge b ~src:1 ~dst:3 ~bytes:1.;
  let g = Dag.ensure_single_entry_exit (Dag.Builder.build b) in
  check Alcotest.int "added entry+exit" 6 (Dag.n_tasks g);
  Alcotest.(check int) "one entry" 1 (List.length (Dag.entries g));
  Alcotest.(check int) "one exit" 1 (List.length (Dag.exits g));
  let entry = List.hd (Dag.entries g) in
  Alcotest.(check bool) "entry virtual" true
    (Task.is_virtual (Dag.task g entry));
  List.iter
    (fun (_, bytes) -> checkf "virtual edges carry no data" 0. bytes)
    (Dag.succs g entry)

let test_map_tasks () =
  let g = diamond () in
  let g' =
    Dag.map_tasks g ~f:(fun t ->
        Task.make ~id:t.Task.id ~name:t.Task.name
          ~data_elements:t.Task.data_elements ~flop:(2. *. t.Task.flop)
          ~alpha:t.Task.alpha)
  in
  checkf "flop doubled" (2. *. (Dag.task g 0).Task.flop) (Dag.task g' 0).Task.flop;
  Alcotest.check_raises "id change rejected"
    (Invalid_argument "Dag.map_tasks: f changed a task id") (fun () ->
      ignore (Dag.map_tasks g ~f:(fun t -> Task.relabel t ~id:(t.Task.id + 1))))

let test_pp_dot () =
  let out = Format.asprintf "%a" Dag.pp_dot (diamond ()) in
  Alcotest.(check bool) "has digraph" true (contains out "digraph dag");
  Alcotest.(check bool) "mentions edge" true (contains out "n0 -> n1")


(* --- Timing tables --------------------------------------------------------- *)

module Timing = Rats_dag.Timing

let test_timing_validation () =
  let dag = diamond () in
  Alcotest.check_raises "bad max_procs"
    (Invalid_argument "Timing.build: max_procs < 1") (fun () ->
      ignore (Timing.build dag ~speed ~max_procs:0));
  let tbl = Timing.build dag ~speed ~max_procs:4 in
  check Alcotest.int "max procs" 4 (Timing.max_procs tbl);
  check Alcotest.int "tasks" 4 (Timing.n_tasks tbl);
  Alcotest.check_raises "procs above table"
    (Invalid_argument "Timing.time: bad procs") (fun () ->
      ignore (Timing.time tbl 0 ~procs:5))

let qcheck_timing_bit_exact =
  QCheck.Test.make ~count:100
    ~name:"timing table entries are bit-identical to Task.time/work"
    QCheck.(pair (int_range 2 40) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let b = Dag.Builder.create () in
      for i = 0 to n - 1 do
        Dag.Builder.add_task b (Task.random rng ~id:i ~name:(string_of_int i))
      done;
      let dag = Dag.Builder.build b in
      let max_procs = 1 + Rng.int rng 64 in
      let tbl = Timing.build dag ~speed ~max_procs in
      let ok = ref true in
      for i = 0 to n - 1 do
        let task = Dag.task dag i in
        for p = 1 to max_procs do
          if
            Timing.time tbl i ~procs:p <> Task.time task ~speed ~procs:p
            || Timing.work tbl i ~procs:p <> Task.work task ~speed ~procs:p
          then ok := false
        done
      done;
      !ok)

let () =
  Alcotest.run "rats_dag"
    [
      ( "task",
        [
          Alcotest.test_case "validation" `Quick test_task_validation;
          Alcotest.test_case "seq time" `Quick test_task_seq_time;
          Alcotest.test_case "amdahl law" `Quick test_task_amdahl;
          qcheck qcheck_amdahl_monotone;
          qcheck qcheck_work_monotone;
          Alcotest.test_case "zero alpha work" `Quick test_task_work_zero_alpha;
          Alcotest.test_case "random bounds" `Quick test_task_random_bounds;
          Alcotest.test_case "virtual" `Quick test_task_virtual;
          Alcotest.test_case "data bytes" `Quick test_task_data_bytes;
          Alcotest.test_case "relabel" `Quick test_task_relabel;
        ] );
      ( "builder",
        [
          Alcotest.test_case "id order" `Quick test_builder_id_order;
          Alcotest.test_case "self loop" `Quick test_builder_self_loop;
          Alcotest.test_case "duplicate edge" `Quick test_builder_duplicate_edge;
          Alcotest.test_case "bad endpoint" `Quick test_builder_bad_endpoint;
          Alcotest.test_case "non-finite weight" `Quick
            test_builder_non_finite_weight;
          Alcotest.test_case "cycle detection" `Quick test_builder_cycle;
          qcheck qcheck_cycle_rejected;
        ] );
      ( "queries",
        [
          Alcotest.test_case "counts" `Quick test_dag_counts;
          Alcotest.test_case "adjacency" `Quick test_dag_adjacency;
          Alcotest.test_case "entries/exits" `Quick test_dag_entries_exits;
          Alcotest.test_case "topological order" `Quick test_dag_topological_order;
          qcheck qcheck_topological_order;
          Alcotest.test_case "depths and levels" `Quick test_dag_depths;
          Alcotest.test_case "bottom levels" `Quick test_dag_bottom_levels;
          Alcotest.test_case "bottom levels with edges" `Quick
            test_dag_bottom_levels_with_edges;
          Alcotest.test_case "top levels" `Quick test_dag_top_levels;
          Alcotest.test_case "critical path" `Quick test_dag_critical_path;
          Alcotest.test_case "total cost" `Quick test_dag_total_cost;
          Alcotest.test_case "single entry/exit noop" `Quick
            test_ensure_single_entry_exit_noop;
          Alcotest.test_case "single entry/exit added" `Quick
            test_ensure_single_entry_exit_adds;
          Alcotest.test_case "map tasks" `Quick test_map_tasks;
          Alcotest.test_case "dot output" `Quick test_pp_dot;
        ] );
      ( "timing",
        [
          Alcotest.test_case "validation" `Quick test_timing_validation;
          qcheck qcheck_timing_bit_exact;
        ] );
    ]
