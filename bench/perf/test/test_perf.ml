(* Tests for the benchmark itself: the percentile rule, per-domain self
   time, compare verdicts and digest checks, and small slices of each
   workload run through the same pass functions the benchmark times. *)

open Rats_perf
module Trace = Rats_obs.Trace
module Suite = Rats_daggen.Suite
module Cluster = Rats_platform.Cluster

let check = Alcotest.check
let float_eq = Alcotest.float 1e-9

(* --- Stats --------------------------------------------------------------- *)

let test_percentile_rule () =
  let xs n = Array.init n (fun i -> float_of_int (n - i)) in
  check Alcotest.(option (float 0.)) "p90 of 100 has 10 beyond" (Some 90.)
    (Stats.percentile ~permille:900 (xs 100));
  check Alcotest.(option (float 0.)) "p90 of 99 has only 9 beyond" None
    (Stats.percentile ~permille:900 (xs 99));
  check Alcotest.(option (float 0.)) "p50 of 20" (Some 10.)
    (Stats.percentile ~permille:500 (xs 20));
  check Alcotest.bool "p99 needs 1000 samples" false
    (Stats.reportable ~permille:990 999);
  check Alcotest.bool "p99 of 1000" true (Stats.reportable ~permille:990 1000)

let test_quartiles () =
  (* statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) *)
  let q1, q2, q3 = Stats.quartiles (Array.init 10 (fun i -> float_of_int (10 - i))) in
  check float_eq "q1" 2.75 q1;
  check float_eq "q2" 5.5 q2;
  check float_eq "q3" 8.25 q3

(* --- Layers -------------------------------------------------------------- *)

let span ~tid name ts dur =
  { Trace.name; cat = "perf"; phase = `Span; ts; dur; tid; args = [] }

let test_self_times_two_domains () =
  (* Domain 0: bench [0,100] > runtime [10,90] > alloc [20,50] + map [50,80].
     Domain 1 interleaves in time: bench [5,60] > alloc [5,45]. A single
     stack across domains would nest domain 1's spans inside domain 0's. *)
  let events =
    [
      span ~tid:0 "bench" 0. 100.;
      span ~tid:1 "bench" 5. 55.;
      span ~tid:1 "alloc" 5. 40.;
      span ~tid:0 "runtime" 10. 80.;
      span ~tid:0 "alloc" 20. 30.;
      span ~tid:0 "map" 50. 30.;
    ]
  in
  let self = Layers.self_times events in
  let get name = List.assoc name self *. 1e6 in
  check float_eq "bench self" (20. +. 15.) (get "bench");
  check float_eq "runtime self" 20. (get "runtime");
  check float_eq "alloc self" 70. (get "alloc");
  check float_eq "map self" 30. (get "map");
  check float_eq "self sums to the root spans" 155.
    (List.fold_left (fun acc (_, s) -> acc +. (s *. 1e6)) 0. self)

let test_self_times_recorded () =
  (* Spans recorded by a real tracer on this domain and a spawned one. *)
  let tracer = Trace.create () in
  let work () =
    Layers.span (Some tracer) "bench" (fun () ->
        Layers.span (Some tracer) "alloc" (fun () -> ignore (Sys.opaque_identity (List.init 1000 Fun.id))))
  in
  work ();
  Domain.join (Domain.spawn work);
  let events = Trace.events tracer in
  check Alcotest.int "two domains" 2
    (List.length (List.sort_uniq Int.compare (List.map (fun (e : Trace.event) -> e.tid) events)));
  let total = List.fold_left (fun acc (e : Trace.event) -> if e.name = "bench" then acc +. e.dur else acc) 0. events in
  let self = Layers.self_times events in
  check (Alcotest.float 1e-6) "self times partition the root spans" (total /. 1e6)
    (List.fold_left (fun acc (_, s) -> acc +. s) 0. self)

(* --- Compare ------------------------------------------------------------- *)

let lower = { Compare.metric = "latency_p50_ms"; lower_is_better = true; bound = 0.10 }
let verdict a b = Compare.verdict_name (Compare.verdict lower (Array.of_list a) (Array.of_list b))

let test_verdicts () =
  let base = [ 10.0; 10.2; 9.9; 10.1; 10.0 ] in
  check Alcotest.string "win: every run better" "better"
    (verdict base [ 9.0; 9.1; 8.9; 9.2; 9.0 ]);
  check Alcotest.string "regress beyond the bound" "worse"
    (verdict base [ 11.5; 11.6; 11.4; 11.8; 11.5 ]);
  check Alcotest.string "slower but inside the bound" "unchanged"
    (verdict base [ 10.5; 10.6; 10.4; 10.8; 10.5 ]);
  check Alcotest.string "unresolved: spread above the bound" "unresolved"
    (verdict base [ 8.; 13.; 9.5; 12.5; 10.3 ])

let record ~seed digest =
  {
    Compare.workload = "plan-large";
    seed;
    digest;
    facts = [ ("est_makespan_mean_s", 1.) ];
    values = [];
    file = digest;
  }

let test_digest_mismatch () =
  check Alcotest.int "same digest per seed" 0
    (List.length (Compare.mismatches [ record ~seed:0 "a"; record ~seed:1 "b"; record ~seed:0 "a" ]));
  check Alcotest.int "mismatch on one seed" 1
    (List.length (Compare.mismatches [ record ~seed:0 "a"; record ~seed:0 "c" ]))

(* --- Workload slices ----------------------------------------------------- *)

let scratch name =
  let dir = Filename.concat "scratch" name in
  Workload.rm_rf dir;
  Workload.mkdir_p dir;
  dir

(* A pass and a traced pass over the same inputs must agree and pass every
   output check. *)
let both_passes pass inputs name =
  let p = pass inputs ~scratch:(scratch (name ^ "-0")) ~tracer:None in
  let tracer = Trace.create () in
  let t = pass inputs ~scratch:(scratch (name ^ "-1")) ~tracer:(Some tracer) in
  check Alcotest.(list string) "untraced checks" [] p.Workload.errors;
  check Alcotest.(list string) "traced checks" [] t.Workload.errors;
  check Alcotest.string "traced digest = untraced digest" p.digest t.digest;
  check Alcotest.int "no failed op" 0 (p.failed + t.failed);
  let unknown =
    List.filter (fun (l, _) -> not (List.mem l Layers.names)) (Layers.self_times (Trace.events tracer))
  in
  check Alcotest.(list string) "every span is a known layer" [] (List.map fst unknown);
  p

let test_sweep_slice () =
  let cluster = Cluster.grillon in
  let configs =
    [|
      { Suite.spec = Suite.Fft { k = 2 }; sample = 0 };
      { Suite.spec = Suite.Strassen; sample = 0 };
      { Suite.spec = Suite.Fft { k = 4 }; sample = 0 };
    |]
  in
  (* The golden comes from the plain serial runner: no pool, no cache. *)
  let golden_path = Filename.concat (scratch "sweep-golden") "golden.csv" in
  Rats_exp.Figures.write_csv golden_path
    (List.map (Rats_exp.Runner.run_config cluster) (Array.to_list configs));
  let inputs =
    {
      Sweep.cluster;
      configs = [| configs.(2); configs.(0); configs.(1) |];
      suite_index = [| 2; 0; 1 |];
      golden = golden_path;
    }
  in
  let p = both_passes (Sweep.pass ~jobs:2) inputs "sweep" in
  check Alcotest.int "ops" 3 p.ops;
  check Alcotest.int "latency per config" 3 (Array.length p.latencies);
  let empty = Filename.concat (scratch "sweep-empty") "empty.csv" in
  Out_channel.with_open_bin empty ignore;
  let wrong = Sweep.pass ~jobs:1 { inputs with golden = empty } ~scratch:(scratch "sweep-2") ~tracer:None in
  check Alcotest.(list string) "a CSV other than the golden is caught"
    [ "results CSV differs from the golden" ] wrong.errors

let test_service_slice () =
  let inputs = Service.setup ~seed:0 in
  let inputs = { Service.requests = Array.sub inputs.Service.requests 0 12 } in
  let p = both_passes Service.pass inputs "service" in
  check Alcotest.int "12 jobs x 3 arms" 36 p.ops;
  check Alcotest.int "one planning latency per job" 36 (Array.length p.latencies)

let test_plan_slice () =
  let inputs = Plan_large.setup ~seed:0 in
  let small =
    List.filter (fun (r : Plan_large.request) -> r.n_tasks <= 60) (Array.to_list inputs.requests)
  in
  let inputs = { Plan_large.requests = Array.of_list (List.filteri (fun i _ -> i < 3) small) } in
  let p = both_passes Plan_large.pass inputs "plan" in
  check Alcotest.int "3 requests" 3 p.ops;
  check Alcotest.bool "bytes framed" true (List.assoc "protocol.bytes_out" p.counts > 0.)

let test_plan_checks () =
  let module Protocol = Rats_server.Protocol in
  let module Json = Rats_obs.Json in
  let frame msg = Protocol.to_frame (Protocol.server_to_json msg) in
  let placed placements =
    frame
      (Protocol.Placed
         (Json.Obj
            [
              ("n_procs", Json.Num 4.);
              ("est_makespan", Json.Num 3.);
              ( "placements",
                Json.Arr
                  (List.map
                     (fun (task, procs, s, f) ->
                       Json.Obj
                         [
                           ("task", Json.Num (float_of_int task));
                           ("procs", Json.Arr (List.map (fun q -> Json.Num (float_of_int q)) procs));
                           ("est_start", Json.Num s);
                           ("est_finish", Json.Num f);
                         ])
                     placements) );
            ]))
  in
  let ok frame = Result.is_ok (Plan_large.check_reply ~n_tasks:2 frame) in
  check Alcotest.bool "valid" true (ok (placed [ (0, [ 0; 1 ], 0., 1.); (1, [ 3 ], 1., 3.) ]));
  check Alcotest.bool "Err reply" false (ok (frame (Protocol.Err "boom")));
  check Alcotest.bool "task placed twice" false
    (ok (placed [ (0, [ 0 ], 0., 1.); (0, [ 1 ], 0., 1.) ]));
  check Alcotest.bool "processor outside the share" false
    (ok (placed [ (0, [ 4 ], 0., 1.); (1, [ 3 ], 1., 3.) ]));
  check Alcotest.bool "empty processor set" false
    (ok (placed [ (0, [], 0., 1.); (1, [ 3 ], 1., 3.) ]));
  check Alcotest.bool "finish before start" false
    (ok (placed [ (0, [ 0 ], 2., 1.); (1, [ 3 ], 1., 3.) ]))

let () =
  Alcotest.run "perf"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile with 10 beyond" `Quick test_percentile_rule;
          Alcotest.test_case "quartiles as python" `Quick test_quartiles;
        ] );
      ( "layers",
        [
          Alcotest.test_case "self time on two domains" `Quick test_self_times_two_domains;
          Alcotest.test_case "self time of recorded spans" `Quick test_self_times_recorded;
        ] );
      ( "compare",
        [
          Alcotest.test_case "verdicts" `Quick test_verdicts;
          Alcotest.test_case "digest mismatch" `Quick test_digest_mismatch;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "3-config sweep" `Quick test_sweep_slice;
          Alcotest.test_case "12-job service" `Quick test_service_slice;
          Alcotest.test_case "3-request plan" `Quick test_plan_slice;
          Alcotest.test_case "plan reply checks" `Quick test_plan_checks;
        ] );
    ]
