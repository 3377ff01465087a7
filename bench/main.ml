(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §3) and offers Bechamel micro-benchmarks of the
   computational kernels.

   Usage: main.exe [-j N|--jobs N] [--retries N] [--timeout S] [--resume]
                   [--strict] [--trace FILE] [--metrics FILE] [-h|--help]
                   [table1|table2|table3|fig2|fig3|fig4|fig5|table4|fig6|
                    fig7|table5|table6|ablations|ccr|autotune|workload|
                    micro|all]
   (default: all)

   RATS_SCALE=smoke (default, 149 configurations) or paper (the full 557).
   RATS_JOBS / -j picks the pool size (default: all cores); RATS_CACHE=off
   disables the on-disk result cache under bench_results/.cache;
   RATS_FAULT injects deterministic faults (see Rats_runtime.Fault);
   RATS_JOURNAL=off disables the write-ahead journal under
   bench_results/.journal. A run killed mid-sweep is resumed with
   [--resume]: journaled results are replayed bit-exactly and only the
   missing work re-executes. Without [--resume] the journal of the previous
   run is discarded. A configuration that keeps failing is reported (and
   counted in BENCH_runtime.json) instead of aborting the run; [--strict]
   restores fail-fast. Every run writes wall time, jobs, cache hit/miss and
   failed/retried/resumed counts per executed target to
   BENCH_runtime.json. [--trace FILE] (or RATS_TRACE) records a Chrome
   trace-event file viewable in Perfetto; [--metrics FILE] (or
   RATS_METRICS) dumps the metrics registry at exit (.json → JSON,
   otherwise Prometheus text). *)

module Suite = Rats_daggen.Suite
module Cluster = Rats_platform.Cluster
module Core = Rats_core
module Exp = Rats_exp
module Pool = Rats_runtime.Pool
module Cache = Rats_runtime.Cache
module Exec = Rats_runtime.Exec
module Journal = Rats_runtime.Journal
module Retry = Rats_runtime.Retry
module Report = Rats_runtime.Report
module Obs_cli = Rats_obs.Obs_cli
module Instr = Rats_obs.Instr

let ppf = Format.std_formatter
let scale = Suite.scale_of_env ()

let scale_name = match scale with Suite.Smoke -> "smoke" | Suite.Paper -> "paper"

(* Set from the command line before any target runs; the lazies below read
   them at force time. *)
let exec = ref (Exec.make ())
let report = ref (Report.create ~scale:scale_name ~jobs:1 ())

let results_dir = "bench_results"

let ensure_results_dir () =
  if not (Sys.file_exists results_dir) then Unix.mkdir results_dir 0o755

let section title =
  Format.fprintf ppf "@.=== %s ===@." title

let timed label f =
  let t0 = Instr.now_s () in
  let r = f () in
  Format.fprintf ppf "(%s computed in %.1fs)@." label (Instr.now_s () -. t0);
  r

(* Wall time, cache and fault-counter deltas of one executed bench target,
   recorded for BENCH_runtime.json. *)
let recorded label f =
  let cache_counters () =
    match !exec.Exec.cache with
    | Some c -> (Cache.hits c, Cache.misses c)
    | None -> (0, 0)
  in
  let stat_counters () =
    let s = !exec.Exec.stats in
    Atomic.(get s.Exec.failed, get s.Exec.retried, get s.Exec.resumed)
  in
  let hits0, misses0 = cache_counters () in
  let failed0, retried0, resumed0 = stat_counters () in
  let t0 = Instr.now_s () in
  let r = f () in
  let hits1, misses1 = cache_counters () in
  let failed1, retried1, resumed1 = stat_counters () in
  Report.record !report ~label
    ~wall_s:(Instr.now_s () -. t0)
    ~cache_hits:(hits1 - hits0) ~cache_misses:(misses1 - misses0)
    ~failed:(failed1 - failed0) ~retried:(retried1 - retried0)
    ~resumed:(resumed1 - resumed0) ();
  r

let sweep_results sweep =
  Exp.Runner.pp_failures Format.err_formatter sweep;
  sweep.Exp.Runner.results

(* Expensive inputs shared between figures. *)
let naive_grillon =
  lazy
    (timed "naive suite on grillon" (fun () ->
         sweep_results
           (Exp.Runner.run_sweep ~progress:true ~exec:!exec scale
              Cluster.grillon)))

let table4_data =
  lazy
    (timed "parameter tuning (Table IV)" (fun () ->
         Exp.Tuning.table4 ~exec:!exec scale))

let tuned_per_cluster =
  lazy
    (timed "tuned suites on all clusters" (fun () ->
         let table = Lazy.force table4_data in
         List.map
           (fun c ->
             (c.Cluster.name, Exp.Figures.run_tuned_suite ~exec:!exec scale table c))
           Cluster.presets))

let tuned_grillon () = List.assoc "grillon" (Lazy.force tuned_per_cluster)

let run_table1 () =
  section "Table I";
  Exp.Figures.table1 ppf

let run_table2 () =
  section "Table II";
  Exp.Figures.table2 ppf

let run_table3 () =
  section "Table III";
  Exp.Figures.table3 ppf scale

let run_fig2 () =
  section "Figure 2";
  let results = Lazy.force naive_grillon in
  Exp.Figures.fig2 ppf results;
  ensure_results_dir ();
  let path = Filename.concat results_dir "naive_grillon.csv" in
  Exp.Figures.write_csv path results;
  Format.fprintf ppf "(full data: %s)@." path

let run_fig3 () =
  section "Figure 3";
  Exp.Figures.fig3 ppf (Lazy.force naive_grillon)

let run_fig4 () =
  section "Figure 4";
  let points =
    timed "delta sweep on FFT/grillon" (fun () ->
        let configs = Exp.Tuning.tuning_configs scale `Fft in
        Exp.Tuning.sweep_delta_for ~exec:!exec Cluster.grillon configs)
  in
  Exp.Figures.fig4 ppf points

let run_fig5 () =
  section "Figure 5";
  let points =
    timed "time-cost sweep on irregular/grillon" (fun () ->
        let configs = Exp.Tuning.tuning_configs scale `Irregular in
        Exp.Tuning.sweep_timecost_for ~exec:!exec Cluster.grillon configs)
  in
  Exp.Figures.fig5 ppf points

let run_table4 () =
  section "Table IV";
  Exp.Figures.table4 ppf (Lazy.force table4_data)

let run_fig6 () =
  section "Figure 6";
  let results = tuned_grillon () in
  Exp.Figures.fig6 ppf results;
  ensure_results_dir ();
  let path = Filename.concat results_dir "tuned_grillon.csv" in
  Exp.Figures.write_csv path results;
  Format.fprintf ppf "(full data: %s)@." path

let run_fig7 () =
  section "Figure 7";
  Exp.Figures.fig7 ppf (tuned_grillon ())

let run_table5 () =
  section "Table V";
  Exp.Figures.table5 ppf (Lazy.force tuned_per_cluster)

let run_table6 () =
  section "Table VI";
  Exp.Figures.table6 ppf (Lazy.force tuned_per_cluster)

let run_ablations () =
  section "Ablations";
  timed "ablation studies" (fun () ->
      Exp.Ablation.print_all ~exec:!exec ppf scale)

let run_ccr () =
  section "CCR crossover (extension)";
  (* Half the study set: the sweep re-simulates every configuration six
     times. *)
  let configs =
    List.filteri (fun i _ -> i mod 2 = 0) (Exp.Ablation.study_configs scale)
  in
  let points =
    timed "CCR sweep" (fun () ->
        Exp.Ccr_sweep.run ~exec:!exec Cluster.grillon configs)
  in
  Exp.Ccr_sweep.print ppf points

let run_autotune () =
  section "Automatic tuning";
  let configs = Exp.Ablation.study_configs scale in
  let rows =
    timed "selector study" (fun () ->
        Exp.Autotune.selector_study ~exec:!exec Cluster.grillon configs)
  in
  Format.fprintf ppf
    "mean makespan relative to HCPA over %d configurations (grillon):@."
    (List.length configs);
  List.iter
    (fun (name, v) -> Format.fprintf ppf "  %-18s %.3f@." name v)
    rows

(* --- Workload studies --------------------------------------------------- *)

(* Tight enough that the bursty/diurnal/mixed profiles exercise rejection
   and expiry, loose enough that the pure poisson profile completes clean —
   the same arrival traces tell both stories. *)
let workload_policy =
  Rats_server.Admission.make ~deadline_s:400. ~queue_limit:32 ~tenant_limit:8
    ()

let workload_profiles = [ "poisson"; "bursty"; "diurnal"; "mixed" ]

let run_workload () =
  section "Workload studies";
  let module Study = Rats_workload_study.Study in
  let cluster = Cluster.grillon in
  let config =
    { (Rats_server.Engine.default_config cluster) with policy = workload_policy }
  in
  ensure_results_dir ();
  List.iter
    (fun name ->
      let profile =
        match Rats_workload.Profile.of_string ~cluster name with
        | Ok p -> p
        | Error e -> failwith ("workload profile: " ^ e)
      in
      let reports =
        timed (name ^ " study") (fun () ->
            Study.run config profile)
      in
      List.iter
        (fun (r : Rats_workload.Report.t) ->
          Format.fprintf ppf
            "  %-8s %-9s completed %3d/%3d  p99 sojourn %7.1f s  fairness \
             %.3f  utilization %4.1f%%@."
            name r.Rats_workload.Report.arm r.Rats_workload.Report.completed
            r.Rats_workload.Report.jobs r.Rats_workload.Report.sojourn_p99
            r.Rats_workload.Report.fairness
            (100. *. r.Rats_workload.Report.utilization))
        reports;
      let path = Filename.concat results_dir ("workload_" ^ name ^ ".csv") in
      Study.write_csv path reports;
      Format.fprintf ppf "(full data: %s)@." path)
    workload_profiles

(* --- Bechamel micro-benchmarks ------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let cluster = Cluster.grillon in
  let fft_cfg = { Suite.spec = Suite.Fft { k = 8 }; sample = 0 } in
  let dag = Suite.generate fft_cfg in
  let problem = Core.Problem.make ~dag ~cluster in
  let alloc = Core.Hcpa.allocate problem in
  let schedule = Core.Rats.schedule ~alloc problem Core.Rats.Baseline in
  let flows =
    Array.init 128 (fun i ->
        {
          Rats_sim.Maxmin.links = [| i mod 20; 20 + (i mod 15) |];
          rate_cap = 1e9;
        })
  in
  let sender = Rats_util.Procset.range 0 8 in
  let receiver = Rats_util.Procset.range 4 12 in
  Test.make_grouped ~name:"rats"
    [
      Test.make ~name:"maxmin-128flows"
        (Staged.stage (fun () ->
             ignore
               (Rats_sim.Maxmin.solve ~n_links:47
                  ~capacity:(fun _ -> 1.25e8)
                  flows)));
      Test.make ~name:"comm-matrix-32x24"
        (Staged.stage (fun () ->
             ignore (Rats_redist.Block.comm_matrix ~amount:1e9 ~senders:32 ~receivers:24)));
      Test.make ~name:"redist-plan"
        (Staged.stage (fun () ->
             ignore (Rats_redist.Redistribution.plan ~sender ~receiver ~bytes:1e9 ())));
      Test.make ~name:"hcpa-alloc-fft8"
        (Staged.stage (fun () -> ignore (Core.Hcpa.allocate problem)));
      Test.make ~name:"rats-timecost-map-fft8"
        (Staged.stage (fun () ->
             ignore
               (Core.Rats.schedule ~alloc problem
                  (Core.Rats.Timecost Core.Rats.naive_timecost))));
      Test.make ~name:"simulate-fft8"
        (Staged.stage (fun () -> ignore (Core.Evaluate.run schedule)));
    ]

let run_micro () =
  section "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg [ instance ] (micro_tests ()) in
  let results = Analyze.all ols instance raw in
  (* Name-sorted so the report order never depends on hash layout. *)
  Hashtbl.fold (fun name ols_result acc -> (name, ols_result) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, ols_result) ->
         let ns =
           match Analyze.OLS.estimates ols_result with
           | Some (t :: _) -> t
           | _ -> nan
         in
         Format.fprintf ppf "  %-28s %12.1f ns/run@." name ns)

let targets =
  [
    ("table1", run_table1);
    ("table2", run_table2);
    ("table3", run_table3);
    ("fig2", run_fig2);
    ("fig3", run_fig3);
    ("fig4", run_fig4);
    ("fig5", run_fig5);
    ("table4", run_table4);
    ("fig6", run_fig6);
    ("fig7", run_fig7);
    ("table5", run_table5);
    ("table6", run_table6);
    ("ablations", run_ablations);
    ("ccr", run_ccr);
    ("autotune", run_autotune);
    ("workload", run_workload);
    ("micro", run_micro);
  ]

let run_all () =
  Format.fprintf ppf "RATS benchmark harness — scale: %s (%d configurations)@."
    scale_name (Suite.n_configs scale);
  List.iter (fun (label, run) -> recorded label run) targets

(* Minimal flag parsing: [-j N], [--jobs N], [--jobs=N], [--retries N],
   [--timeout S], [--trace F], [--metrics F], [--resume], [--strict]
   anywhere; the first remaining argument is the target. *)
type options = {
  mutable jobs : int;
  mutable retries : int;
  mutable timeout_s : float option;
  mutable resume : bool;
  mutable strict : bool;
  mutable trace : string option;
  mutable metrics : string option;
}

let usage () =
  Format.printf
    "Usage: main.exe [OPTION]… [TARGET]@.@.\
     Regenerates the paper's tables and figures (default target: all).@.@.\
     Targets: %s@.@.\
     Options:@.\
    \  -j N, --jobs=N    pool workers (default: RATS_JOBS or all cores)@.\
    \  --retries=N       extra attempts for a failing configuration@.\
    \  --timeout=SECONDS per-configuration wall-clock budget@.\
    \  --resume          replay the journal of an interrupted run@.\
    \  --strict          abort on the first configuration failure@.\
    \  --trace=FILE      record a Chrome trace-event file (or RATS_TRACE)@.\
    \  --metrics=FILE    dump the metrics registry at exit (or RATS_METRICS)@.\
    \  -h, --help        show this message@.@.\
     Environment: RATS_SCALE=smoke|paper, RATS_JOBS, RATS_CACHE=off,@.\
     RATS_CACHE_DIR, RATS_FAULT (see Rats_runtime.Fault), RATS_JOURNAL=off.@."
    (String.concat "|" (List.map fst targets))

let parse_argv () =
  let opts =
    {
      jobs = Pool.default_jobs ();
      retries = 0;
      timeout_s = None;
      resume = false;
      strict = false;
      trace = None;
      metrics = None;
    }
  in
  let cmd = ref None in
  let bad flag what =
    Format.eprintf "invalid %s value %S@." flag what;
    exit 2
  in
  let set_jobs s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> opts.jobs <- n
    | _ -> bad "jobs" s
  in
  let set_retries s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> opts.retries <- n
    | _ -> bad "retries" s
  in
  let set_timeout s =
    match float_of_string_opt s with
    | Some t when t > 0. -> opts.timeout_s <- Some t
    | _ -> bad "timeout" s
  in
  let prefixed ~prefix arg =
    let n = String.length prefix in
    if String.length arg > n && String.sub arg 0 n = prefix then
      Some (String.sub arg n (String.length arg - n))
    else None
  in
  let rec go = function
    | [] -> ()
    | ("-h" | "--help") :: _ ->
        usage ();
        exit 0
    | ("-j" | "--jobs") :: v :: rest ->
        set_jobs v;
        go rest
    | "--retries" :: v :: rest ->
        set_retries v;
        go rest
    | "--timeout" :: v :: rest ->
        set_timeout v;
        go rest
    | "--trace" :: v :: rest ->
        opts.trace <- Some v;
        go rest
    | "--metrics" :: v :: rest ->
        opts.metrics <- Some v;
        go rest
    | [ ("-j" | "--jobs") ] -> bad "jobs" "<missing>"
    | [ "--retries" ] -> bad "retries" "<missing>"
    | [ "--timeout" ] -> bad "timeout" "<missing>"
    | [ "--trace" ] -> bad "trace" "<missing>"
    | [ "--metrics" ] -> bad "metrics" "<missing>"
    | "--resume" :: rest ->
        opts.resume <- true;
        go rest
    | "--strict" :: rest ->
        opts.strict <- true;
        go rest
    | arg :: rest -> (
        let assignments =
          [
            ("--jobs=", set_jobs);
            ("--retries=", set_retries);
            ("--timeout=", set_timeout);
            ("--trace=", fun v -> opts.trace <- Some v);
            ("--metrics=", fun v -> opts.metrics <- Some v);
          ]
        in
        let matched =
          List.find_map
            (fun (prefix, set) ->
              Option.map set (prefixed ~prefix arg))
            assignments
        in
        match matched with
        | Some () -> go rest
        | None ->
            (match !cmd with
            | None -> cmd := Some arg
            | Some _ ->
                Format.eprintf "unexpected argument %S@." arg;
                exit 2);
            go rest)
  in
  go (List.tl (Array.to_list Sys.argv));
  (opts, Option.value !cmd ~default:"all")

let () =
  let opts, cmd = parse_argv () in
  Obs_cli.configure ?trace:opts.trace ?metrics:opts.metrics ();
  let journal =
    match Sys.getenv_opt "RATS_JOURNAL" with
    | Some "off" -> None
    | _ ->
        Some
          (Journal.open_ ~name:("bench-" ^ scale_name) ~resume:opts.resume ())
  in
  let retry =
    { Retry.default with retries = opts.retries; timeout_s = opts.timeout_s }
  in
  exec :=
    Exec.of_env ~jobs:opts.jobs ~retry ~strict:opts.strict ?journal ();
  (match journal with
  | Some j when opts.resume ->
      Format.fprintf ppf "(resuming: %d journaled results in %s)@."
        (Journal.loaded j) (Journal.path j)
  | _ -> ());
  report := Report.create ~scale:scale_name ~jobs:opts.jobs ();
  (match cmd with
  | "all" -> run_all ()
  | cmd -> (
      match List.assoc_opt cmd targets with
      | Some run -> recorded cmd run
      | None ->
          Format.eprintf "unknown command %S@." cmd;
          exit 2));
  (match !exec.Exec.cache with
  | Some c ->
      Format.fprintf ppf "@.cache: %d hits, %d misses (hit rate %.0f%%)@."
        (Cache.hits c) (Cache.misses c)
        (100. *. Cache.hit_rate c);
      let q = Cache.quarantined c in
      if q > 0 then
        Format.fprintf ppf "cache: %d corrupt entries quarantined under %s@." q
          (Cache.quarantine_dir c)
  | None -> ());
  let stats = !exec.Exec.stats in
  let failed = Atomic.get stats.Exec.failed in
  let retried = Atomic.get stats.Exec.retried in
  let resumed = Atomic.get stats.Exec.resumed in
  if failed > 0 || retried > 0 || resumed > 0 then
    Format.fprintf ppf "faults: %d failed, %d retried, %d resumed@." failed
      retried resumed;
  Option.iter Journal.close journal;
  Report.write !report "BENCH_runtime.json";
  Format.fprintf ppf "(runtime report: BENCH_runtime.json)@.";
  Obs_cli.finalize ();
  Option.iter (Format.fprintf ppf "(trace: %s)@.") (Obs_cli.trace_path ());
  Option.iter (Format.fprintf ppf "(metrics: %s)@.") (Obs_cli.metrics_path ());
  Format.pp_print_flush ppf ();
  if failed > 0 then exit 1
