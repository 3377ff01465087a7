(* Tests for rats_daggen: shapes, random DAGs, FFT, Strassen, the suite. *)

module Shape = Rats_daggen.Shape
module Random_dag = Rats_daggen.Random_dag
module Fft = Rats_daggen.Fft
module Strassen = Rats_daggen.Strassen
module Suite = Rats_daggen.Suite
module Dag = Rats_dag.Dag
module Task = Rats_dag.Task
module Rng = Rats_util.Rng

let check = Alcotest.check
let qcheck t = Rats_test_support.Seeded.to_alcotest t

(* --- Shape --------------------------------------------------------------- *)

let test_shape_validation () =
  Alcotest.check_raises "width 0" (Invalid_argument "Shape.make: width outside (0,1]")
    (fun () -> ignore (Shape.make ~width:0. ~regularity:0.5 ~density:0.5 ()));
  Alcotest.check_raises "jump 0" (Invalid_argument "Shape.make: jump < 1")
    (fun () ->
      ignore (Shape.make ~width:0.5 ~regularity:0.5 ~density:0.5 ~jump:0 ()));
  (* NaN fails every comparison, so the range test must be written to
     fail on it. *)
  List.iter
    (fun (name, make) ->
      Alcotest.check_raises (name ^ " nan")
        (Invalid_argument (Printf.sprintf "Shape.make: %s outside (0,1]" name))
        (fun () -> ignore (make nan)))
    [
      ("width", fun v -> Shape.make ~width:v ~regularity:0.5 ~density:0.5 ());
      ("regularity", fun v -> Shape.make ~width:0.5 ~regularity:v ~density:0.5 ());
      ("density", fun v -> Shape.make ~width:0.5 ~regularity:0.5 ~density:v ());
    ]

let test_level_sizes_sum () =
  let shape = Shape.make ~width:0.5 ~regularity:0.2 ~density:0.5 () in
  let rng = Rng.create 1 in
  for n = 1 to 60 do
    let sizes = Shape.level_sizes shape rng ~n_tasks:n in
    check Alcotest.int "sums to n" n (Array.fold_left ( + ) 0 sizes);
    Alcotest.(check bool) "all positive" true (Array.for_all (fun s -> s > 0) sizes)
  done

let test_level_sizes_regular () =
  (* regularity 1 means every level hits the target exactly. *)
  let shape = Shape.make ~width:0.5 ~regularity:1.0 ~density:0.5 () in
  let rng = Rng.create 2 in
  let sizes = Shape.level_sizes shape rng ~n_tasks:100 in
  let target = int_of_float (Float.round (100. ** 0.5)) in
  Array.iteri
    (fun i s -> if i < Array.length sizes - 1 then check Alcotest.int "target" target s)
    sizes

let test_width_extremes () =
  let rng = Rng.create 3 in
  let narrow = Shape.make ~width:0.01 ~regularity:1.0 ~density:0.5 () in
  let sizes = Shape.level_sizes narrow rng ~n_tasks:30 in
  check Alcotest.int "chain" 30 (Array.length sizes);
  let wide = Shape.make ~width:1.0 ~regularity:1.0 ~density:0.5 () in
  let sizes = Shape.level_sizes wide rng ~n_tasks:30 in
  check Alcotest.int "fork-join" 1 (Array.length sizes)

(* --- Random DAGs ---------------------------------------------------------- *)

let shape_ly = Shape.make ~width:0.5 ~regularity:0.5 ~density:0.5 ()
let shape_ir = Shape.make ~width:0.5 ~regularity:0.5 ~density:0.5 ~jump:2 ()

let count_virtual dag =
  Array.fold_left
    (fun acc t -> if Task.is_virtual t then acc + 1 else acc)
    0 (Dag.tasks dag)

let test_layered_structure () =
  let dag = Random_dag.layered (Rng.create 4) ~n_tasks:40 ~shape:shape_ly in
  check Alcotest.int "real tasks" 40 (Dag.n_tasks dag - count_virtual dag);
  check Alcotest.int "one entry" 1 (List.length (Dag.entries dag));
  check Alcotest.int "one exit" 1 (List.length (Dag.exits dag))

let test_layered_rejects_jump () =
  Alcotest.check_raises "jump forbidden"
    (Invalid_argument "Random_dag.layered: layered DAGs have no jump edges")
    (fun () ->
      ignore (Random_dag.layered (Rng.create 5) ~n_tasks:10 ~shape:shape_ir))

let test_layered_equal_costs_per_level () =
  let dag = Random_dag.layered (Rng.create 6) ~n_tasks:40 ~shape:shape_ly in
  let groups = Dag.level_groups dag in
  Array.iter
    (fun tasks ->
      let real =
        List.filter (fun i -> not (Task.is_virtual (Dag.task dag i))) tasks
      in
      match real with
      | [] -> ()
      | first :: rest ->
          let t0 = Dag.task dag first in
          List.iter
            (fun i ->
              let t = Dag.task dag i in
              Alcotest.(check (float 0.)) "same m" t0.Task.data_elements
                t.Task.data_elements;
              Alcotest.(check (float 0.)) "same flop" t0.Task.flop t.Task.flop;
              Alcotest.(check (float 0.)) "same alpha" t0.Task.alpha t.Task.alpha)
            rest)
    groups

let test_irregular_jump_edges_span () =
  let dag = Random_dag.irregular (Rng.create 7) ~n_tasks:50 ~shape:shape_ir in
  (* All real->real edges span at most `jump` levels of the generator's
     layering. Use depths as a proxy: depth(dst) - depth(src) in [1, jump]
     need not hold exactly after jump edges change depths, so just check the
     DAG is well-formed and has more edges than a comparable layered one. *)
  check Alcotest.int "real tasks" 50 (Dag.n_tasks dag - count_virtual dag);
  check Alcotest.int "one entry" 1 (List.length (Dag.entries dag))

let test_every_real_task_connected () =
  let dag = Random_dag.irregular (Rng.create 8) ~n_tasks:30 ~shape:shape_ir in
  Array.iter
    (fun (t : Task.t) ->
      if not (Task.is_virtual t) then begin
        Alcotest.(check bool) "has pred or is entry" true
          (Dag.preds dag t.Task.id <> [] || Dag.entries dag = [ t.Task.id ]);
        Alcotest.(check bool) "has succ or is exit" true
          (Dag.succs dag t.Task.id <> [] || Dag.exits dag = [ t.Task.id ])
      end)
    (Dag.tasks dag)

let test_edge_bytes_match_producer () =
  let dag = Random_dag.layered (Rng.create 9) ~n_tasks:25 ~shape:shape_ly in
  List.iter
    (fun e ->
      let src = Dag.task dag e.Dag.src and dst = Dag.task dag e.Dag.dst in
      if not (Task.is_virtual src || Task.is_virtual dst) then
        Alcotest.(check (float 0.)) "edge carries producer's dataset"
          (Task.data_bytes src) e.Dag.bytes)
    (Dag.edges dag)

let qcheck_random_dags_well_formed =
  QCheck.Test.make ~count:60 ~name:"random DAGs are well-formed"
    QCheck.(triple (int_range 5 60) (int_range 0 1000) bool)
    (fun (n, seed, layered) ->
      let rng = Rng.create seed in
      let dag =
        if layered then Random_dag.layered rng ~n_tasks:n ~shape:shape_ly
        else Random_dag.irregular rng ~n_tasks:n ~shape:shape_ir
      in
      List.length (Dag.entries dag) = 1
      && List.length (Dag.exits dag) = 1
      && Array.length (Dag.topological_order dag) = Dag.n_tasks dag)

(* --- FFT ------------------------------------------------------------------ *)

let test_fft_task_counts () =
  List.iter
    (fun (k, expected) ->
      check Alcotest.int
        (Printf.sprintf "k=%d" k)
        expected
        (Fft.n_computation_tasks ~k))
    [ (2, 5); (4, 15); (8, 39); (16, 95) ]

let test_fft_generate_counts () =
  List.iter
    (fun k ->
      let dag = Fft.generate (Rng.create 10) ~k in
      check Alcotest.int "computation + virtual exit"
        (Fft.n_computation_tasks ~k + 1)
        (Dag.n_tasks dag))
    [ 2; 4; 8; 16 ]

let test_fft_validation () =
  Alcotest.check_raises "k=3" (Invalid_argument "Fft: k must be a power of two >= 2")
    (fun () -> ignore (Fft.n_computation_tasks ~k:3));
  Alcotest.check_raises "k=1" (Invalid_argument "Fft: k must be a power of two >= 2")
    (fun () -> ignore (Fft.generate (Rng.create 0) ~k:1))

let test_fft_every_path_critical () =
  (* Tasks of a level share one cost, so all bottom levels within a level
     are equal and every entry-to-exit path is critical. *)
  let dag = Fft.generate (Rng.create 11) ~k:8 in
  let bl =
    Dag.bottom_levels dag
      ~task_cost:(fun i -> (Dag.task dag i).Task.flop)
      ~edge_cost:(fun _ _ bytes -> bytes)
  in
  let groups = Dag.level_groups dag in
  Array.iter
    (fun tasks ->
      match tasks with
      | [] | [ _ ] -> ()
      | first :: rest ->
          List.iter
            (fun i ->
              Alcotest.(check (float 1e-6)) "equal bottom levels within level"
                bl.(first) bl.(i))
            rest)
    groups

let test_fft_butterfly_wiring () =
  (* k=4: butterfly level 1 task j has predecessors j and j xor 1 of the
     leaves; level 2 task j has predecessors j and j xor 2 of level 1. *)
  let dag = Fft.generate (Rng.create 12) ~k:4 in
  (* ids: tree levels 1+2+4 = 0..6 (leaves 3..6); bf1 7..10; bf2 11..14 *)
  let preds i = List.map fst (Dag.preds dag i) |> List.sort compare in
  Alcotest.(check (list int)) "bf1_0" [ 3; 4 ] (preds 7);
  Alcotest.(check (list int)) "bf1_1" [ 3; 4 ] (preds 8);
  Alcotest.(check (list int)) "bf1_2" [ 5; 6 ] (preds 9);
  Alcotest.(check (list int)) "bf2_0" [ 7; 9 ] (preds 11);
  Alcotest.(check (list int)) "bf2_3" [ 8; 10 ] (preds 14)

(* --- Strassen ------------------------------------------------------------- *)

let test_strassen_counts () =
  check Alcotest.int "25 computation tasks" 25 Strassen.n_computation_tasks;
  let dag = Strassen.generate (Rng.create 13) in
  check Alcotest.int "with virtual entry+exit" 27 (Dag.n_tasks dag);
  check Alcotest.int "one entry" 1 (List.length (Dag.entries dag));
  check Alcotest.int "one exit" 1 (List.length (Dag.exits dag))

let test_strassen_structure () =
  let dag = Strassen.generate (Rng.create 14) in
  (* M1 (id 10) consumes S1 and S2 (ids 0, 1). *)
  let preds i =
    List.map fst (Dag.preds dag i)
    |> List.filter (fun p -> not (Task.is_virtual (Dag.task dag p)))
    |> List.sort compare
  in
  Alcotest.(check (list int)) "m1 <- s1,s2" [ 0; 1 ] (preds 10);
  Alcotest.(check (list int)) "m2 <- s3" [ 2 ] (preds 11);
  (* C11 (id 19) consumes u2 (18) and M7 (16). *)
  Alcotest.(check (list int)) "c11 <- u2,m7" [ 16; 18 ] (preds 19);
  (* The four quadrant results feed the virtual exit. *)
  let exit = List.hd (Dag.exits dag) in
  Alcotest.(check (list int)) "exit preds are C quadrants" [ 19; 20; 21; 24 ]
    (preds exit)

let test_strassen_multiplications_cost_alike () =
  let dag = Strassen.generate (Rng.create 15) in
  let m1 = Dag.task dag 10 in
  for i = 11 to 16 do
    Alcotest.(check (float 0.)) "same multiplication cost" m1.Task.flop
      (Dag.task dag i).Task.flop
  done

(* --- Suite ---------------------------------------------------------------- *)

let test_suite_counts_paper () =
  let all = Suite.all Suite.Paper in
  let count k = List.length (List.filter (fun c -> Suite.kind c = k) all) in
  check Alcotest.int "layered" 108 (count `Layered);
  check Alcotest.int "irregular" 324 (count `Irregular);
  check Alcotest.int "fft" 100 (count `Fft);
  check Alcotest.int "strassen" 25 (count `Strassen);
  check Alcotest.int "total 557" 557 (List.length all)

let test_suite_counts_smoke () =
  check Alcotest.int "smoke total" 149 (Suite.n_configs Suite.Smoke)

let test_suite_names_unique () =
  let all = Suite.all Suite.Paper in
  let names = List.map Suite.name all in
  check Alcotest.int "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_suite_seed_deterministic () =
  let c = { Suite.spec = Suite.Fft { k = 8 }; sample = 3 } in
  check Alcotest.int "stable seed" (Suite.seed c) (Suite.seed c);
  let c' = { c with sample = 4 } in
  Alcotest.(check bool) "different samples differ" true
    (Suite.seed c <> Suite.seed c')

let test_suite_generate_deterministic () =
  let c =
    {
      Suite.spec =
        Suite.Irregular { n_tasks = 25; shape = shape_ir };
      sample = 1;
    }
  in
  let d1 = Suite.generate c and d2 = Suite.generate c in
  check Alcotest.int "same size" (Dag.n_tasks d1) (Dag.n_tasks d2);
  check Alcotest.int "same edges" (Dag.n_edges d1) (Dag.n_edges d2);
  let flops d =
    Array.fold_left (fun acc t -> acc +. t.Task.flop) 0. (Dag.tasks d)
  in
  Alcotest.(check (float 0.)) "same costs" (flops d1) (flops d2)

let test_suite_kind_names () =
  Alcotest.(check string) "layered" "layered" (Suite.kind_name `Layered);
  Alcotest.(check string) "fft" "fft" (Suite.kind_name `Fft)

let test_suite_generate_dispatch () =
  let fft = Suite.generate { Suite.spec = Suite.Fft { k = 2 }; sample = 0 } in
  check Alcotest.int "fft k=2 size" 6 (Dag.n_tasks fft);
  let st = Suite.generate { Suite.spec = Suite.Strassen; sample = 0 } in
  check Alcotest.int "strassen size" 27 (Dag.n_tasks st)


let test_all_paper_configs_generate () =
  (* Every one of the 557 configurations must yield a well-formed problem
     instance: single entry/exit, acyclic, expected task count. *)
  List.iter
    (fun c ->
      let dag = Suite.generate c in
      Alcotest.(check bool) (Suite.name c ^ ": single entry") true
        (List.length (Dag.entries dag) = 1);
      Alcotest.(check bool) (Suite.name c ^ ": single exit") true
        (List.length (Dag.exits dag) = 1);
      Alcotest.(check bool) (Suite.name c ^ ": topo covers all") true
        (Array.length (Dag.topological_order dag) = Dag.n_tasks dag);
      let expected_real =
        match c.Suite.spec with
        | Suite.Layered { n_tasks; _ } | Suite.Irregular { n_tasks; _ } ->
            n_tasks
        | Suite.Fft { k } -> Fft.n_computation_tasks ~k
        | Suite.Strassen -> Strassen.n_computation_tasks
      in
      let real =
        Array.fold_left
          (fun acc t -> if Task.is_virtual t then acc else acc + 1)
          0 (Dag.tasks dag)
      in
      Alcotest.(check int) (Suite.name c ^ ": computation tasks") expected_real
        real)
    (Suite.all Suite.Paper)

let () =
  Alcotest.run "rats_daggen"
    [
      ( "shape",
        [
          Alcotest.test_case "validation" `Quick test_shape_validation;
          Alcotest.test_case "level sizes sum" `Quick test_level_sizes_sum;
          Alcotest.test_case "regular levels" `Quick test_level_sizes_regular;
          Alcotest.test_case "width extremes" `Quick test_width_extremes;
        ] );
      ( "random",
        [
          Alcotest.test_case "layered structure" `Quick test_layered_structure;
          Alcotest.test_case "layered rejects jump" `Quick test_layered_rejects_jump;
          Alcotest.test_case "layered equal costs" `Quick
            test_layered_equal_costs_per_level;
          Alcotest.test_case "irregular with jumps" `Quick
            test_irregular_jump_edges_span;
          Alcotest.test_case "connectivity" `Quick test_every_real_task_connected;
          Alcotest.test_case "edge bytes" `Quick test_edge_bytes_match_producer;
          qcheck qcheck_random_dags_well_formed;
        ] );
      ( "fft",
        [
          Alcotest.test_case "task counts" `Quick test_fft_task_counts;
          Alcotest.test_case "generated counts" `Quick test_fft_generate_counts;
          Alcotest.test_case "validation" `Quick test_fft_validation;
          Alcotest.test_case "every path critical" `Quick
            test_fft_every_path_critical;
          Alcotest.test_case "butterfly wiring" `Quick test_fft_butterfly_wiring;
        ] );
      ( "strassen",
        [
          Alcotest.test_case "counts" `Quick test_strassen_counts;
          Alcotest.test_case "structure" `Quick test_strassen_structure;
          Alcotest.test_case "multiplication costs" `Quick
            test_strassen_multiplications_cost_alike;
        ] );
      ( "suite",
        [
          Alcotest.test_case "paper counts (557)" `Quick test_suite_counts_paper;
          Alcotest.test_case "smoke counts" `Quick test_suite_counts_smoke;
          Alcotest.test_case "unique names" `Quick test_suite_names_unique;
          Alcotest.test_case "deterministic seeds" `Quick
            test_suite_seed_deterministic;
          Alcotest.test_case "deterministic generation" `Quick
            test_suite_generate_deterministic;
          Alcotest.test_case "kind names" `Quick test_suite_kind_names;
          Alcotest.test_case "generate dispatch" `Quick test_suite_generate_dispatch;
          Alcotest.test_case "all 557 generate" `Slow
            test_all_paper_configs_generate;
        ] );
    ]
