(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §3), runs the suite under explicit RATS
   parameters ([sweep]) and offers Bechamel micro-benchmarks of the
   computational kernels.

   Usage: main.exe [TARGET] [OPTION]…   (default target: all; see --help)

   Every target takes the same runtime options: -j/--jobs, --retries,
   --timeout, --resume, --strict, --trace and --metrics. [sweep] adds
   --cluster, --mindelta, --maxdelta, --minrho, --packing and --csv.
   RATS_SCALE=smoke (default, 149 configurations) or paper (the full 557)
   picks the scale. A run killed mid-sweep is resumed with [--resume]:
   journaled results are replayed bit-exactly and only the missing work
   re-executes. A configuration that keeps failing is reported (and
   counted in BENCH_runtime.json) instead of aborting the run; [--strict]
   restores fail-fast. Every run writes wall time, jobs, cache hit/miss and
   failed/retried/resumed counts per executed target to
   BENCH_runtime.json. *)

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
module Instr = Rats_obs.Instr
module Common = Rats_cli.Common

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
  Exp.Figures.table1 ppf

let run_table2 () =
  Exp.Figures.table2 ppf

let run_table3 () =
  Exp.Figures.table3 ppf scale

let run_fig2 () =
  let results = Lazy.force naive_grillon in
  Exp.Figures.fig2 ppf results;
  ensure_results_dir ();
  let path = Filename.concat results_dir "naive_grillon.csv" in
  Exp.Figures.write_csv path results;
  Format.fprintf ppf "(full data: %s)@." path

let run_fig3 () =
  Exp.Figures.fig3 ppf (Lazy.force naive_grillon)

let run_fig4 () =
  let points =
    timed "delta sweep on FFT/grillon" (fun () ->
        let configs = Exp.Tuning.tuning_configs scale `Fft in
        Exp.Tuning.sweep_delta ~exec:!exec Cluster.grillon configs)
  in
  Exp.Figures.fig4 ppf points

let run_fig5 () =
  let points =
    timed "time-cost sweep on irregular/grillon" (fun () ->
        let configs = Exp.Tuning.tuning_configs scale `Irregular in
        Exp.Tuning.sweep_timecost ~exec:!exec Cluster.grillon configs)
  in
  Exp.Figures.fig5 ppf points

let run_table4 () =
  Exp.Figures.table4 ppf (Lazy.force table4_data)

let run_fig6 () =
  let results = tuned_grillon () in
  Exp.Figures.fig6 ppf results;
  ensure_results_dir ();
  let path = Filename.concat results_dir "tuned_grillon.csv" in
  Exp.Figures.write_csv path results;
  Format.fprintf ppf "(full data: %s)@." path

let run_fig7 () =
  Exp.Figures.fig7 ppf (tuned_grillon ())

let run_table5 () =
  Exp.Figures.table5 ppf (Lazy.force tuned_per_cluster)

let run_table6 () =
  Exp.Figures.table6 ppf (Lazy.force tuned_per_cluster)

let run_ablations () =
  timed "ablation studies" (fun () ->
      Exp.Ablation.print_all ~exec:!exec ppf scale)

let run_ccr () =
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
  let configs = Exp.Ablation.study_configs scale in
  let rows =
    timed "selector study" (fun () ->
        Exp.Autotune.selector_study ~exec:!exec Cluster.grillon configs)
  in
  Format.fprintf ppf
    "mean makespan relative to HCPA over %d configurations (grillon):@."
    (List.length configs);
  List.iter
    (fun (name, v) ->
      Format.fprintf ppf "  %-18s %a@." name
        (Exp.Figures.pp_value (fun ppf -> Format.fprintf ppf "%.3f"))
        v)
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
  let layered =
    Core.Problem.make ~cluster:Cluster.grelon
      ~dag:
        (Suite.generate
           {
             Suite.spec =
               Suite.Layered
                 {
                   n_tasks = 200;
                   shape =
                     Rats_daggen.Shape.make ~width:0.5 ~density:0.8
                       ~regularity:0.8 ();
                 };
             sample = 0;
           })
  in
  (* Four processors in grelon's first cabinet to four in its second. *)
  let cabinet0 = Rats_util.Procset.range 0 4 in
  let cabinet1 = Rats_util.Procset.range 24 4 in
  (* 300 live flows on grelon routes (two links within a cabinet, four
     across); each run replaces one with the next route of a fixed pool
     and refreshes. *)
  let churn =
    let module Inc = Rats_sim.Maxmin.Incremental in
    let c = Cluster.grelon in
    let n = Cluster.n_procs c in
    let rng = Rats_util.Rng.create 42 in
    let routes =
      Array.init 1000 (fun _ ->
          let src = Rats_util.Rng.int rng n in
          let dst = (src + 1 + Rats_util.Rng.int rng (n - 1)) mod n in
          let route = Cluster.route c ~src ~dst in
          (route, Cluster.flow_rate_cap c ~route))
    in
    let inc =
      Inc.create ~n_links:(Cluster.n_links c) ~capacity:(fun l ->
          (Cluster.link c l).Rats_platform.Link.bandwidth)
    in
    let add (links, rate_cap) = Inc.add inc ~links ~rate_cap in
    let live = Array.init 300 (fun k -> add routes.(k)) in
    Inc.refresh inc;
    let runs = ref 0 in
    fun () ->
      let k = !runs mod 300 in
      Inc.remove inc live.(k);
      live.(k) <- add routes.((!runs + 300) mod 1000);
      Inc.refresh inc;
      incr runs
  in
  (* 400 live flows on distinct pairs of grillon's 47 NICs, a window of
     the 1 081 pairs (i, i + d mod 47) in order of d = 1 .. 23; 47 is
     prime, so every ring of one d connects all NICs and the window is one
     component. Each run drops the window's oldest pair, adds the next
     and refreshes: the component walk stops on every refresh. *)
  let flat_churn =
    let module Inc = Rats_sim.Maxmin.Incremental in
    let c = Cluster.grillon in
    let inc =
      Inc.create ~n_links:(Cluster.n_links c) ~capacity:(fun l ->
          (Cluster.link c l).Rats_platform.Link.bandwidth)
    in
    let add p =
      let p = p mod (47 * 23) in
      let src = p mod 47 in
      let route = Cluster.route c ~src ~dst:((src + 1 + (p / 47)) mod 47) in
      Inc.add inc ~links:route ~rate_cap:(Cluster.flow_rate_cap c ~route)
    in
    let live = Array.init 400 add in
    Inc.refresh inc;
    let runs = ref 0 in
    fun () ->
      let k = !runs mod 400 in
      Inc.remove inc live.(k);
      live.(k) <- add (!runs + 400);
      Inc.refresh inc;
      incr runs
  in
  Test.make_grouped ~name:"rats"
    [
      Test.make ~name:"maxmin-128flows"
        (Staged.stage (fun () ->
             ignore
               (Rats_sim.Maxmin.solve ~n_links:47
                  ~capacity:(fun _ -> 1.25e8)
                  flows)));
      Test.make ~name:"maxmin-refresh-300flows-grelon" (Staged.stage churn);
      Test.make ~name:"maxmin-refresh-400flows-grillon" (Staged.stage flat_churn);
      Test.make ~name:"comm-matrix-32x24"
        (Staged.stage (fun () ->
             ignore (Rats_redist.Block.comm_matrix ~amount:1e9 ~senders:32 ~receivers:24)));
      Test.make ~name:"redist-plan"
        (Staged.stage (fun () ->
             ignore (Rats_redist.Redistribution.plan ~sender ~receiver ~bytes:1e9 ())));
      Test.make ~name:"redist-estimate-4x4-grelon"
        (Staged.stage (fun () ->
             ignore
               (Rats_redist.Redistribution.estimate_between Cluster.grelon
                  ~sender:cabinet0 ~receiver:cabinet1 ~bytes:1e9)));
      Test.make ~name:"hcpa-alloc-fft8"
        (Staged.stage (fun () -> ignore (Core.Hcpa.allocate problem)));
      Test.make ~name:"hcpa-alloc-layered200-grelon"
        (Staged.stage (fun () -> ignore (Core.Hcpa.allocate layered)));
      Test.make ~name:"rats-timecost-map-fft8"
        (Staged.stage (fun () ->
             ignore
               (Core.Rats.schedule ~alloc problem
                  (Core.Rats.Timecost Core.Rats.naive_timecost))));
      Test.make ~name:"simulate-fft8"
        (Staged.stage (fun () -> ignore (Core.Evaluate.run schedule)));
    ]

let run_micro () =
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
         Format.fprintf ppf "  %-34s %12.1f ns/run@." name ns)

let targets =
  [
    ("table1", "Table I", run_table1);
    ("table2", "Table II", run_table2);
    ("table3", "Table III", run_table3);
    ("fig2", "Figure 2", run_fig2);
    ("fig3", "Figure 3", run_fig3);
    ("fig4", "Figure 4", run_fig4);
    ("fig5", "Figure 5", run_fig5);
    ("table4", "Table IV", run_table4);
    ("fig6", "Figure 6", run_fig6);
    ("fig7", "Figure 7", run_fig7);
    ("table5", "Table V", run_table5);
    ("table6", "Table VI", run_table6);
    ("ablations", "Ablations", run_ablations);
    ("ccr", "CCR crossover (extension)", run_ccr);
    ("autotune", "Automatic tuning", run_autotune);
    ("workload", "Workload studies", run_workload);
    ("micro", "Micro-benchmarks (Bechamel)", run_micro);
  ]

let run_target (label, title, run) =
  recorded label (fun () ->
      section title;
      run ())

let run_all () =
  Format.fprintf ppf "RATS benchmark harness — scale: %s (%d configurations)@."
    scale_name (Suite.n_configs scale);
  List.iter run_target targets

(* The suite under explicit RATS parameters: Figures 2 and 3 of one
   cluster, plus its per-configuration CSV. *)
let run_sweep cluster delta timecost csv () =
  let sweep =
    Exp.Runner.run_sweep ~delta ~timecost ~progress:true ~exec:!exec scale
      cluster
  in
  let results = sweep.Exp.Runner.results in
  Exp.Figures.fig2 ppf results;
  Exp.Figures.fig3 ppf results;
  Option.iter
    (fun path ->
      Exp.Figures.write_csv path results;
      Format.fprintf ppf "CSV written to %s@." path)
    csv;
  Exp.Runner.pp_failures Format.err_formatter sweep;
  Format.fprintf ppf "%d/%d configurations done.@." (List.length results)
    sweep.Exp.Runner.total

(* --- Command line ------------------------------------------------------- *)

type runtime = {
  jobs : int;
  retry : Retry.policy;
  resume : bool;
  strict : bool;
  obs : Common.obs;
}

(* Runs [run] with the runtime configured, then reports cache and fault
   counters and writes BENCH_runtime.json; exit status 1 when any
   configuration failed. *)
let main rt run =
  Common.start_obs rt.obs;
  let journal =
    match Sys.getenv_opt "RATS_JOURNAL" with
    | Some "off" -> None
    | _ ->
        Some
          (Journal.open_ ~name:("bench-" ^ scale_name) ~resume:rt.resume ())
  in
  exec :=
    Exec.of_env ~jobs:rt.jobs ~retry:rt.retry ~strict:rt.strict ?journal ();
  (match journal with
  | Some j when rt.resume ->
      Format.fprintf ppf "(resuming: %d journaled results in %s)@."
        (Journal.loaded j) (Journal.path j)
  | _ -> ());
  report := Report.create ~scale:scale_name ~jobs:rt.jobs ();
  run ();
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
  Option.iter (Format.fprintf ppf "(trace: %s)@.") rt.obs.Common.trace;
  Option.iter (Format.fprintf ppf "(metrics: %s)@.") rt.obs.Common.metrics;
  Format.pp_print_flush ppf ();
  if failed > 0 then 1 else 0

open Cmdliner

(* [conv] restricted to the values satisfying [ok]. *)
let checked conv ok ~expected =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" expected s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let runtime_term =
  let jobs =
    Arg.(
      value
      & opt (checked int (fun n -> n >= 1) ~expected:"an integer >= 1")
          (Pool.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N" ~absent:"$(b,RATS_JOBS) or all cores"
          ~doc:
            "Pool workers; 1 forces serial execution. Results are identical \
             for every value.")
  in
  let retries =
    Arg.(
      value
      & opt (checked int (fun n -> n >= 0) ~expected:"an integer >= 0") 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Re-run a failing configuration up to $(docv) extra times \
             (exponential backoff) before recording it as failed.")
  in
  let timeout =
    Arg.(
      value
      & opt
          (some (checked float (fun t -> t > 0.) ~expected:"a number > 0"))
          None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-configuration wall-clock budget (monotonic). An attempt \
             that exceeds it counts as a failure, subject to $(b,--retries).")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Replay the results journaled by an interrupted run \
             (bench_results/.journal) and execute only the missing \
             configurations; the combined output is bit-identical to an \
             uninterrupted run. Without this flag the previous journal is \
             discarded.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Abort on the first configuration failure (fail fast) instead of \
             completing the run and reporting failures at the end.")
  in
  let make jobs retries timeout_s resume strict obs =
    let retry = { Retry.default with retries; timeout_s } in
    { jobs; retry; resume; strict; obs }
  in
  Term.(
    const make $ jobs $ retries $ timeout $ resume $ strict $ Common.obs_term)

let all_term = Term.(const (fun rt -> main rt run_all) $ runtime_term)

let target_cmd ((name, title, _) as target) =
  Cmd.v (Cmd.info name ~doc:title)
    Term.(
      const (fun rt -> main rt (fun () -> run_target target)) $ runtime_term)

let sweep_cmd =
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Write per-configuration results to $(docv).")
  in
  let run rt cluster mindelta maxdelta minrho packing csv =
    let delta = { Core.Rats.mindelta; maxdelta } in
    let timecost = { Core.Rats.minrho; packing } in
    main rt (fun () -> recorded "sweep" (run_sweep cluster delta timecost csv))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Figures 2 and 3 of the suite on one cluster under the given RATS \
          parameters")
    Term.(
      const run $ runtime_term $ Common.cluster_term $ Common.mindelta_term
      $ Common.maxdelta_term $ Common.minrho_term $ Common.packing_term $ csv)

let () =
  let info =
    Cmd.info "main.exe"
      ~doc:"Regenerate the paper's tables and figures (default target: all)"
      ~man:
        [
          `S Manpage.s_environment;
          `P "$(b,RATS_SCALE)=smoke (default, 149 configurations) or paper \
              (the full 557).";
          `P "$(b,RATS_CACHE)=off disables the result cache under \
              bench_results/.cache; $(b,RATS_CACHE_DIR) relocates it.";
          `P "$(b,RATS_JOURNAL)=off disables the write-ahead journal under \
              bench_results/.journal.";
          `P "$(b,RATS_FAULT) injects deterministic faults (see \
              Rats_runtime.Fault).";
        ]
  in
  let all_cmd =
    Cmd.v (Cmd.info "all" ~doc:"Every target but sweep, in paper order")
      all_term
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default:all_term info
          (all_cmd :: sweep_cmd :: List.map target_cmd targets)))
