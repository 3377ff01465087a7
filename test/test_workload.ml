(* Tests for the workload engine (lib/workload) and its study runner:
   arrival-process sanity, trace compilation determinism and byte-compat
   with the historical load generator, trace-file round-trips,
   study-runner invariants and CSV determinism, and the new Stats
   helpers (Welford mean/std, Jain's fairness). *)

module Rng = Rats_util.Rng
module Stats = Rats_util.Stats
module Cluster = Rats_platform.Cluster
module Suite = Rats_daggen.Suite
module Shape = Rats_daggen.Shape
module Rats = Rats_core.Rats
module Arrival = Rats_workload.Arrival
module App = Rats_workload.App
module Tenant = Rats_workload.Tenant
module Profile = Rats_workload.Profile
module Trace = Rats_workload.Trace
module Report = Rats_workload.Report
module Study = Rats_workload_study.Study
module Api = Rats_server.Api
module Admission = Rats_server.Admission
module Engine = Rats_server.Engine
module Load = Rats_server.Load
module Seeded = Rats_test_support.Seeded

let check = Alcotest.check
let qcheck t = Seeded.to_alcotest t

let tmp_file =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rats_workload_test_%d_%d.jsonl" (Unix.getpid ())
         !counter)

(* --- Stats helpers ------------------------------------------------------- *)

let test_mean_std () =
  let m, s = Stats.mean_std [||] in
  check (Alcotest.float 0.) "empty mean" 0. m;
  check (Alcotest.float 0.) "empty std" 0. s;
  let m, s = Stats.mean_std [| 42. |] in
  check (Alcotest.float 0.) "singleton mean" 42. m;
  check (Alcotest.float 0.) "singleton std" 0. s;
  let m, s = Stats.mean_std [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  (* Classic example: mean 5, population std 2. *)
  check (Alcotest.float 1e-12) "mean" 5. m;
  check (Alcotest.float 1e-12) "std" 2. s

let prop_mean_std_matches_two_pass =
  QCheck.Test.make ~count:200 ~name:"Welford agrees with the two-pass formula"
    QCheck.(list_of_size Gen.(2 -- 50) (float_range 0. 1e6))
    (fun l ->
      let xs = Array.of_list l in
      let n = float_of_int (Array.length xs) in
      let mean = Array.fold_left ( +. ) 0. xs /. n in
      let var =
        Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs /. n
      in
      let m, s = Stats.mean_std xs in
      Float.abs (m -. mean) <= 1e-6 *. (1. +. Float.abs mean)
      && Float.abs (s -. sqrt var) <= 1e-6 *. (1. +. sqrt var))

let test_jain_fairness () =
  check (Alcotest.float 0.) "empty is fair" 1. (Stats.jain_fairness [||]);
  check (Alcotest.float 0.) "all zero is fair" 1.
    (Stats.jain_fairness [| 0.; 0.; 0. |]);
  check (Alcotest.float 1e-12) "equal shares are fair" 1.
    (Stats.jain_fairness [| 3.; 3.; 3.; 3. |]);
  (* One-hot: the index collapses to 1/n. *)
  check (Alcotest.float 1e-12) "one-hot is 1/n" 0.25
    (Stats.jain_fairness [| 10.; 0.; 0.; 0. |]);
  check (Alcotest.float 1e-12) "two of four" 0.5
    (Stats.jain_fairness [| 5.; 5.; 0.; 0. |]);
  Alcotest.check_raises "negative raises"
    (Invalid_argument "Stats.jain_fairness: negative value") (fun () ->
      ignore (Stats.jain_fairness [| 1.; -1. |]))

(* --- arrival processes --------------------------------------------------- *)

let increasing times =
  let ok = ref true in
  Array.iteri
    (fun i t ->
      if t < 0. then ok := false;
      if i > 0 && t < times.(i - 1) then ok := false)
    times;
  !ok

let prop_poisson_sane =
  QCheck.Test.make ~count:50 ~name:"poisson: increasing, mean ~ 1/rate"
    QCheck.(pair (int_range 0 10_000) (float_range 0.05 5.))
    (fun (seed, rate) ->
      let n = 400 in
      let times =
        Arrival.times (Arrival.Poisson { rate }) (Rng.create seed) ~n
      in
      let mean_gap = times.(n - 1) /. float_of_int n in
      increasing times
      && Float.abs ((mean_gap *. rate) -. 1.) < 0.35)

let prop_bursty_sane =
  QCheck.Test.make ~count:50
    ~name:"bursty: increasing, mean rate between off and on"
    QCheck.(pair (int_range 0 10_000) (float_range 0.2 2.))
    (fun (seed, rate_on) ->
      let n = 400 in
      let p =
        Arrival.Bursty
          { rate_on; rate_off = rate_on /. 10.; mean_on = 20.; mean_off = 20. }
      in
      let times = Arrival.times p (Rng.create seed) ~n in
      let mean_rate = float_of_int n /. times.(n - 1) in
      increasing times
      && mean_rate <= rate_on *. 1.1
      && mean_rate >= rate_on /. 10. *. 0.9)

let prop_diurnal_sane =
  QCheck.Test.make ~count:50
    ~name:"diurnal: increasing, mean rate within the modulation envelope"
    QCheck.(pair (int_range 0 10_000) (float_range 0.1 2.))
    (fun (seed, base) ->
      let n = 400 in
      let p = Arrival.Diurnal { base; amplitude = 0.8; period = 200. } in
      let times = Arrival.times p (Rng.create seed) ~n in
      let mean_rate = float_of_int n /. times.(n - 1) in
      (* Long-run average of the sinusoid is [base]; allow generous slack. *)
      increasing times
      && mean_rate <= base *. 1.8
      && mean_rate >= base *. 0.5)

let test_arrival_validate () =
  Alcotest.check_raises "poisson rate" (Invalid_argument "Arrival: Poisson rate <= 0")
    (fun () -> Arrival.validate (Arrival.Poisson { rate = 0. }));
  Alcotest.check_raises "diurnal amplitude"
    (Invalid_argument "Arrival: Diurnal amplitude outside [0, 1]") (fun () ->
      Arrival.validate
        (Arrival.Diurnal { base = 1.; amplitude = 1.5; period = 10. }))

(* --- trace compilation --------------------------------------------------- *)

let cluster = Cluster.grillon

let profile_of name =
  match Profile.of_string ~cluster name with
  | Ok p -> p
  | Error e -> Alcotest.failf "profile %S: %s" name e

let test_trace_deterministic () =
  List.iter
    (fun name ->
      let p = profile_of (name ^ ":jobs=30") in
      let t1 = Trace.compile p and t2 = Trace.compile p in
      check Alcotest.bool (name ^ " same seed same trace") true (t1 = t2);
      check Alcotest.int (name ^ " job count") 30 (Array.length t1);
      check Alcotest.bool (name ^ " sorted") true
        (increasing (Array.map (fun j -> j.Trace.at) t1));
      let p' = profile_of (name ^ ":jobs=30,seed=43") in
      check Alcotest.bool (name ^ " different seed different trace") false
        (t1 = Trace.compile p'))
    [ "poisson"; "bursty"; "diurnal"; "pipeline"; "mixed" ]

(* Replicates the pre-workload-engine load generator loop verbatim. The
   path ratsd and rats_client take (a poisson spec through
   [Profile.of_string], [Trace.compile], then [Load.requests] with the
   strategy set) must reproduce it draw for draw, bit for bit. *)
let legacy_trace ~cluster ~strategy ~jobs:n_jobs ~tenants ~rate ~seed =
  let n = Cluster.n_procs cluster in
  let procs_min = max 1 (n / 4) and procs_max = n in
  let spec_pool =
    [|
      Suite.Layered
        {
          n_tasks = 25;
          shape = Shape.make ~width:0.5 ~regularity:0.8 ~density:0.2 ();
        };
      Suite.Layered
        {
          n_tasks = 25;
          shape = Shape.make ~width:0.2 ~regularity:0.2 ~density:0.8 ();
        };
      Suite.Irregular
        {
          n_tasks = 25;
          shape = Shape.make ~width:0.5 ~regularity:0.2 ~density:0.2 ~jump:2 ();
        };
      Suite.Fft { k = 2 };
      Suite.Strassen;
    |]
  in
  let per_tenant_rate = rate /. float_of_int tenants in
  let arrivals = ref [] in
  for tenant = 0 to tenants - 1 do
    let rng = Rng.create (seed + (7919 * tenant)) in
    let tenant_name = Printf.sprintf "tenant-%d" tenant in
    let jobs =
      (n_jobs / tenants) + if tenant < n_jobs mod tenants then 1 else 0
    in
    let t = ref 0. in
    for _ = 1 to jobs do
      let u = Rng.float rng 1. in
      t := !t +. (-.log (1. -. u) /. per_tenant_rate);
      let spec = spec_pool.(Rng.int rng (Array.length spec_pool)) in
      let sample = Rng.int_range rng 0 2 in
      let procs = Rng.int_range rng procs_min procs_max in
      let request =
        {
          Api.tenant = tenant_name;
          job = Api.Generated { Suite.spec; sample };
          strategy;
          procs;
        }
      in
      arrivals := (!t, request) :: !arrivals
    done
  done;
  List.sort
    (fun ((t1 : float), (r1 : Api.request)) (t2, (r2 : Api.request)) ->
      compare (t1, r1.Api.tenant) (t2, r2.Api.tenant))
    !arrivals

let test_load_path_byte_identical () =
  List.iter
    (fun (cluster, strategy, spec, (jobs, tenants, rate, seed)) ->
      let legacy = legacy_trace ~cluster ~strategy ~jobs ~tenants ~rate ~seed in
      let served =
        match Profile.of_string ~cluster spec with
        | Error e -> Alcotest.fail e
        | Ok p ->
            Array.to_list
              (Array.map
                 (fun (at, (r : Api.request)) -> (at, { r with Api.strategy }))
                 (Load.requests (Trace.compile p)))
      in
      check Alcotest.int (spec ^ " same length") (List.length legacy)
        (List.length served);
      (* Structural equality covers every float bit and every spec field. *)
      check Alcotest.bool (spec ^ " trace bit-identical") true
        (legacy = served))
    [
      (* The spec, and the grammar's values spelled out for the oracle. *)
      (cluster, Rats.Delta Rats.naive_delta, "poisson", (120, 4, 0.05, 42));
      ( cluster,
        Rats.Delta { Rats.mindelta = -0.3; maxdelta = 0.7 },
        "poisson:jobs=31,tenants=3",
        (31, 3, 0.05, 42) );
      ( Cluster.chti,
        Rats.Baseline,
        "poisson:jobs=17,seed=7,rate=0.4",
        (17, 4, 0.4, 7) );
    ]

(* The CSV of every default arm run over [requests]. *)
let study_csv ?(config = Engine.default_config cluster) p requests =
  Study.csv
    (List.map
       (fun arm -> fst (Study.run_arm config ~profile:p ~requests arm))
       Study.default_arms)

let test_trace_jobs_invariant () =
  (* The engine's worker count must never leak into study results. *)
  let p = profile_of "mixed:jobs=20" in
  let requests = Load.requests (Trace.compile p) in
  let rows jobs =
    study_csv
      ~config:{ (Engine.default_config cluster) with jobs = Some jobs }
      p requests
  in
  check Alcotest.string "jobs=1 and jobs=4 byte-identical" (rows 1) (rows 4)

let with_tmp_file f =
  let path = tmp_file () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let read_lines path =
  List.filter (( <> ) "")
    (String.split_on_char '\n'
       (In_channel.with_open_bin path In_channel.input_all))

(* A saved trace is ratsd's journal: line for line the submission record
   [Engine.submit] journals for the same request, and replaying it is
   running the compiled trace. The mixed profile covers every app kind,
   pipelines (as inline listings) included. *)
let test_trace_file_roundtrip () =
  let p = profile_of "mixed:jobs=40" in
  let requests = Load.requests (Trace.compile p) in
  with_tmp_file (fun path ->
      Load.save path requests;
      check
        Alcotest.(list string)
        "each line is the journal record"
        (Array.to_list
           (Array.map
              (fun (at, r) ->
                Rats_obs.Json.to_string (Api.submission_to_json ~at r))
              requests))
        (read_lines path);
      check Alcotest.bool "pipelines stored inline" true
        (Array.exists
           (fun (_, (r : Api.request)) ->
             match r.Api.job with Api.Inline _ -> true | _ -> false)
           requests);
      match Load.load path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok loaded ->
          check Alcotest.bool "round-trip bit-identical" true
            (loaded = requests);
          check Alcotest.string "loaded and compiled give one CSV"
            (study_csv p requests) (study_csv p loaded));
  with_tmp_file (fun path ->
      write_file path "{\"at\":1.0}\n";
      match Load.load path with
      | Error e ->
          check Alcotest.bool "load error carries position" true
            (String.starts_with ~prefix:(path ^ ":1: ") e)
      | Ok _ -> Alcotest.fail "a record without a request loaded")

(* A value the JSON grammar accepts but a constructor refuses is a load
   error at its line, not an exception. *)
let test_trace_file_bad_value () =
  let record width =
    Printf.sprintf
      {|{"at":1,"req":{"tenant":"t","job":{"kind":"layered","n":25,"width":%s,"density":0.2,"regularity":0.8,"jump":1,"sample":0},"strategy":{"algo":"hcpa"},"procs":4}}|}
      width
  in
  with_tmp_file (fun path ->
      write_file path (record "0.5" ^ "\n" ^ record "-1" ^ "\n");
      match Load.load path with
      | Ok _ -> Alcotest.fail "a width of -1 loaded"
      | Error e ->
          check Alcotest.string "file and line named"
            (path ^ ":2: Shape.make: width outside (0,1]")
            e)

(* The packing arm fixes its own allocation, so it never runs HCPA. *)
let test_packing_skips_hcpa () =
  let r =
    {
      Api.tenant = "t";
      job = Api.Generated { Suite.spec = Suite.Fft { k = 8 }; sample = 0 };
      strategy = Rats.Baseline;
      procs = 0;
    }
  in
  let counter = Rats_obs.Instr.alloc_runs in
  let before = Rats_obs.Metrics.counter_value counter in
  ignore (Rats_workload_study.Packing.plan ~cluster:Cluster.grillon r);
  check Alcotest.int "no allocation run" 0
    (Rats_obs.Metrics.counter_value counter - before)

(* --- study runner -------------------------------------------------------- *)

let test_study_invariants () =
  let p = profile_of "bursty:jobs=24,tenants=3" in
  let policy = Admission.make ~deadline_s:300. ~queue_limit:8 ~tenant_limit:4 () in
  let reports =
    Study.run ~arms:Study.all_arms
      { (Engine.default_config cluster) with policy }
      p
  in
  check Alcotest.int "one report per arm" (List.length Study.all_arms)
    (List.length reports);
  List.iter
    (fun (r : Report.t) ->
      check Alcotest.int (r.Report.arm ^ ": conservation") r.Report.jobs
        (r.Report.completed + r.Report.rejected + r.Report.expired);
      check Alcotest.int (r.Report.arm ^ ": all submitted") 24 r.Report.jobs;
      check Alcotest.bool (r.Report.arm ^ ": fairness in (0,1]") true
        (r.Report.fairness > 0. && r.Report.fairness <= 1. +. 1e-12);
      check Alcotest.bool (r.Report.arm ^ ": utilization in [0,1]") true
        (r.Report.utilization >= 0. && r.Report.utilization <= 1.);
      check Alcotest.int (r.Report.arm ^ ": tenant rows") 3
        (List.length r.Report.tenants);
      let per_tenant_sum =
        List.fold_left
          (fun acc (pt : Report.per_tenant) ->
            check Alcotest.int (pt.Report.tenant ^ ": tenant conservation")
              pt.Report.submitted
              (pt.Report.completed + pt.Report.rejected + pt.Report.expired);
            check Alcotest.int
              (pt.Report.tenant ^ ": sojourn per completion")
              pt.Report.completed
              (Array.length pt.Report.sojourns);
            acc + pt.Report.submitted)
          0 r.Report.tenants
      in
      check Alcotest.int (r.Report.arm ^ ": tenants cover all jobs")
        r.Report.jobs per_tenant_sum)
    reports

let test_study_deterministic_csv () =
  let p = profile_of "diurnal:jobs=18" in
  let csv1 = Study.csv (Study.run (Engine.default_config cluster) p) in
  let csv2 = Study.csv (Study.run (Engine.default_config cluster) p) in
  check Alcotest.string "same profile same csv" csv1 csv2;
  let lines = String.split_on_char '\n' csv1 in
  check Alcotest.string "header" Report.csv_header (List.hd lines);
  List.iter
    (fun line ->
      if line <> "" then
        check Alcotest.int "column count"
          (List.length (String.split_on_char ',' Report.csv_header))
          (List.length (String.split_on_char ',' line)))
    lines

let test_arm_strategy_logged () =
  (* The engine logs a request's own strategy, so a RATS arm must submit
     with its strategy, not only plan with it. *)
  let p = profile_of "poisson:jobs=12,tenants=2" in
  let requests = Load.requests (Trace.compile p) in
  List.iter
    (fun arm ->
      let _, events =
        Study.run_arm (Engine.default_config cluster) ~profile:p ~requests arm
      in
      let strategies =
        List.filter_map
          (fun (ev : Api.stamped) ->
            match ev.Api.event with
            | Api.Submitted { strategy; _ } -> Some strategy
            | _ -> None)
          events
      in
      check Alcotest.int (Study.arm_name arm ^ ": submissions") 12
        (List.length strategies);
      List.iter
        (check Alcotest.string
           (Study.arm_name arm ^ ": Submitted strategy")
           (Study.arm_name arm))
        strategies)
    [ Study.Delta; Study.Hcpa; Study.Timecost ]

(* A replayed trace may name tenants the profile does not: every job still
   lands in a row. Renaming all of a poisson trace's tenants leaves the
   profile's four rows at zero and puts the whole trace in one more. *)
let test_study_unknown_tenants () =
  let p = profile_of "poisson:jobs=40" in
  let requests =
    Array.map
      (fun (at, (r : Api.request)) -> (at, { r with Api.tenant = "alice" }))
      (Load.requests (Trace.compile p))
  in
  let r, _ =
    Study.run_arm (Engine.default_config cluster) ~profile:p ~requests
      Study.Hcpa
  in
  check Alcotest.int "jobs" 40 r.Report.jobs;
  check
    Alcotest.(list string)
    "rows: profile tenants, then alice"
    [ "tenant-0"; "tenant-1"; "tenant-2"; "tenant-3"; "alice" ]
    (List.map (fun pt -> pt.Report.tenant) r.Report.tenants);
  List.iter
    (fun (pt : Report.per_tenant) ->
      let outcomes =
        pt.Report.completed + pt.Report.rejected + pt.Report.expired
      in
      if pt.Report.tenant = "alice" then begin
        check Alcotest.int "alice submitted" 40 pt.Report.submitted;
        check Alcotest.int "alice outcomes" 40 outcomes
      end
      else
        check Alcotest.int (pt.Report.tenant ^ " is empty") 0
          (pt.Report.submitted + outcomes + Array.length pt.Report.sojourns))
    r.Report.tenants

let test_arm_names () =
  List.iter
    (fun arm ->
      match Study.arm_of_string (Study.arm_name arm) with
      | Ok arm' ->
          check Alcotest.bool (Study.arm_name arm ^ " round-trips") true
            (arm = arm')
      | Error e -> Alcotest.fail e)
    Study.all_arms;
  check Alcotest.bool "unknown arm is an error" true
    (Result.is_error (Study.arm_of_string "simulated-annealing"))

(* --- profile grammar ----------------------------------------------------- *)

let test_profile_grammar () =
  let p = profile_of "bursty:jobs=60,tenants=5,rate=0.2,seed=9" in
  check Alcotest.int "jobs" 60 p.Profile.n_jobs;
  check Alcotest.int "tenants" 5 (List.length p.Profile.tenants);
  check Alcotest.int "seed" 9 p.Profile.seed;
  check Alcotest.string "name" "bursty" p.Profile.name;
  (match Profile.of_string ~cluster ~seed:77 "poisson:seed=9" with
  | Ok p -> check Alcotest.int "explicit seed wins" 77 p.Profile.seed
  | Error e -> Alcotest.fail e);
  check Alcotest.bool "unknown preset" true
    (Result.is_error (Profile.of_string ~cluster "zipf"));
  check Alcotest.bool "bad key" true
    (Result.is_error (Profile.of_string ~cluster "poisson:procs=9"));
  check Alcotest.bool "bad value" true
    (Result.is_error (Profile.of_string ~cluster "poisson:jobs=-3"));
  (* Out-of-range values are errors, never a crash or a silent t = 0
     trace. *)
  List.iter
    (fun spec ->
      check Alcotest.bool ("rejects " ^ spec) true
        (Result.is_error (Profile.of_string ~cluster spec)))
    [
      "poisson:jobs=0";
      "poisson:tenants=0";
      "poisson:rate=0";
      "poisson:rate=nan";
      "poisson:rate=inf";
      "bursty:rate=inf";
      "mixed:rate=1e400";
    ]

let () =
  Alcotest.run "workload"
    [
      ( "stats",
        [
          Alcotest.test_case "mean/std" `Quick test_mean_std;
          qcheck prop_mean_std_matches_two_pass;
          Alcotest.test_case "jain fairness" `Quick test_jain_fairness;
        ] );
      ( "arrivals",
        [
          qcheck prop_poisson_sane;
          qcheck prop_bursty_sane;
          qcheck prop_diurnal_sane;
          Alcotest.test_case "validation" `Quick test_arrival_validate;
        ] );
      ( "trace",
        [
          Alcotest.test_case "deterministic" `Quick test_trace_deterministic;
          Alcotest.test_case "load shim byte-identical" `Quick
            test_load_path_byte_identical;
          Alcotest.test_case "worker count invariant" `Quick
            test_trace_jobs_invariant;
          Alcotest.test_case "file round-trip" `Quick
            test_trace_file_roundtrip;
          Alcotest.test_case "bad value names file and line" `Quick
            test_trace_file_bad_value;
        ] );
      ( "study",
        [
          Alcotest.test_case "invariants" `Quick test_study_invariants;
          Alcotest.test_case "deterministic csv" `Quick
            test_study_deterministic_csv;
          Alcotest.test_case "arm names" `Quick test_arm_names;
          Alcotest.test_case "unknown tenants reported" `Quick
            test_study_unknown_tenants;
          Alcotest.test_case "rats arms log their strategy" `Quick
            test_arm_strategy_logged;
          Alcotest.test_case "packing skips hcpa" `Quick
            test_packing_skips_hcpa;
        ] );
      ( "profile",
        [ Alcotest.test_case "grammar" `Quick test_profile_grammar ] );
    ]
