(* Tests for rats_exp: runner, metrics, tuning, figures. *)

module Suite = Rats_daggen.Suite
module Shape = Rats_daggen.Shape
module Cluster = Rats_platform.Cluster
module Rats = Rats_core.Rats
module Runner = Rats_exp.Runner
module Metrics = Rats_exp.Metrics
module Tuning = Rats_exp.Tuning
module Figures = Rats_exp.Figures

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* Small, fast configurations. *)
let small_configs =
  [
    { Suite.spec = Suite.Fft { k = 2 }; sample = 0 };
    { Suite.spec = Suite.Fft { k = 4 }; sample = 1 };
    { Suite.spec = Suite.Strassen; sample = 0 };
    { Suite.spec =
        Suite.Layered
          { n_tasks = 25;
            shape = Shape.make ~width:0.5 ~regularity:0.8 ~density:0.2 () };
      sample = 0 };
  ]

let small_results =
  lazy (List.map (Runner.run_config Cluster.chti) small_configs)

(* Hand-built results with known relationships for metric tests. *)
let synthetic_results =
  let mk name h d t =
    {
      Runner.config = { Suite.spec = Suite.Strassen; sample = name };
      cluster = "synthetic";
      hcpa = { Runner.makespan = h; work = h };
      delta = { Runner.makespan = d; work = d };
      timecost = { Runner.makespan = t; work = t };
    }
  in
  [ mk 0 100. 80. 50.; mk 1 100. 120. 100.; mk 2 200. 100. 100. ]

(* --- Runner ----------------------------------------------------------------- *)

let test_run_config_positive () =
  List.iter
    (fun (r : Runner.result) ->
      Alcotest.(check bool) "positive measurements" true
        (r.Runner.hcpa.Runner.makespan > 0.
        && r.Runner.delta.Runner.makespan > 0.
        && r.Runner.timecost.Runner.makespan > 0.
        && r.Runner.hcpa.Runner.work > 0.);
      Alcotest.(check string) "cluster recorded" "chti" r.Runner.cluster)
    (Lazy.force small_results)

let test_run_config_custom_params () =
  let config = List.hd small_configs in
  (* Forbidding every modification makes both RATS variants behave like the
     baseline. *)
  let r =
    Runner.run_config
      ~delta:{ Rats.mindelta = 0.; maxdelta = 0. }
      ~timecost:{ Rats.minrho = 1.0; packing = false }
      Cluster.chti config
  in
  checkf "delta = hcpa" r.Runner.hcpa.Runner.makespan r.Runner.delta.Runner.makespan

module Exec = Rats_runtime.Exec
module Cache = Rats_runtime.Cache
module Journal = Rats_runtime.Journal
module Counters = Rats_obs.Metrics
module Instr = Rats_obs.Instr

let counted counter f =
  let before = Counters.counter_value counter in
  let v = f () in
  (v, Counters.counter_value counter - before)

(* Bit for bit: Marshal writes floats as their raw IEEE bytes. *)
let bits v = Marshal.to_string v [ Marshal.No_sharing ]

let naive_arms =
  [ Runner.hcpa; Runner.mapped (Rats.Delta Rats.naive_delta);
    Runner.mapped (Rats.Timecost Rats.naive_timecost) ]

(* Each cell measures what {!Runner.run_config} measures, bit for bit. *)
let test_strategy_measurement () =
  let config = List.hd small_configs in
  let lookup =
    Runner.run_cells (List.map (Runner.cell Cluster.chti config) naive_arms)
  in
  let r = Runner.run_config Cluster.chti config in
  check Alcotest.bool "cells equal run_config's measurements" true
    (bits (List.map (fun arm -> lookup (Runner.cell Cluster.chti config arm)) naive_arms)
    = bits [ Some r.Runner.hcpa; Some r.Runner.delta; Some r.Runner.timecost ])

(* A request that names cells twice simulates each distinct cell once. *)
let test_duplicate_cells_once () =
  let configs = [ List.nth small_configs 0; List.nth small_configs 2 ] in
  let cells =
    List.concat_map
      (fun config -> List.map (Runner.cell Cluster.chti config) naive_arms)
      configs
  in
  let lookup, sims =
    counted Instr.sim_runs (fun () ->
        Runner.run_cells ~exec:(Exec.make ~jobs:2 ()) (cells @ List.rev cells))
  in
  check Alcotest.int "one simulation per distinct cell" (List.length cells) sims;
  check Alcotest.bool "every cell found" true
    (List.for_all (fun c -> Option.is_some (lookup c)) cells)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f))
      (Sys.readdir path) (* lint: allow D003 — deletion order is irrelevant *);
    Sys.rmdir path
  end
  else Sys.remove path

let with_cache_dir f =
  let dir = Filename.temp_dir "rats_study_cache" "" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

let cache_files dir =
  let files = Sys.readdir dir in
  Array.sort String.compare files;
  List.filter (fun f -> Filename.check_suffix f ".cache") (Array.to_list files)

(* A record only grows: after a configuration's three cells, HCPA plus one
   tuned arm costs one simulation and one stored record. *)
let test_record_grows () =
  with_cache_dir (fun dir ->
      let config = List.hd small_configs in
      let cache = Cache.create ~dir:(Filename.concat dir "cache") () in
      let journal =
        Journal.open_ ~dir:(Filename.concat dir "journal") ~name:"grow"
          ~resume:false ()
      in
      let exec = Exec.make ~jobs:1 ~cache ~journal () in
      ignore (Runner.run_config_outcome ~exec Cluster.chti config);
      let tuned = Runner.mapped (Rats.Delta { Rats.mindelta = 0.; maxdelta = 1. }) in
      let lookup, sims =
        counted Instr.sim_runs (fun () ->
            Runner.run_cells ~exec
              (List.map (Runner.cell Cluster.chti config) [ Runner.hcpa; tuned ]))
      in
      check Alcotest.int "one simulation" 1 sims;
      check Alcotest.int "one record appended per request" 2
        (Journal.appended journal);
      check Alcotest.int "one cache entry, replaced" 1
        (List.length (cache_files (Filename.concat dir "cache")));
      check Alcotest.bool "both cells found" true
        (Option.is_some (lookup (Runner.cell Cluster.chti config tuned))
        && Option.is_some (lookup (Runner.cell Cluster.chti config Runner.hcpa)));
      Journal.close journal;
      (* The stored record holds all four cells. *)
      let warm = Cache.create ~dir:(Filename.concat dir "cache") () in
      let (_ : Runner.lookup), sims =
        counted Instr.sim_runs (fun () ->
            Runner.run_cells ~exec:(Exec.make ~jobs:1 ~cache:warm ())
              (List.map (Runner.cell Cluster.chti config) (tuned :: naive_arms)))
      in
      check Alcotest.int "replayed without simulating" 0 sims;
      check Alcotest.int "one hit" 1 (Cache.hits warm))

(* --- Metrics ----------------------------------------------------------------- *)

let test_relative_series_sorted () =
  List.iter
    (fun (s : Metrics.series) ->
      let v = s.Metrics.values in
      check Alcotest.int "three points" 3 (Array.length v);
      Alcotest.(check bool) "sorted" true (v.(0) <= v.(1) && v.(1) <= v.(2)))
    (Metrics.relative_makespan synthetic_results)

let test_relative_values () =
  match Metrics.relative_makespan synthetic_results with
  | [ delta; timecost ] ->
      Alcotest.(check string) "labels" "delta" delta.Metrics.label;
      Alcotest.(check (array (float 1e-9))) "delta ratios" [| 0.5; 0.8; 1.2 |]
        delta.Metrics.values;
      Alcotest.(check (array (float 1e-9))) "timecost ratios" [| 0.5; 0.5; 1.0 |]
        timecost.Metrics.values
  | _ -> Alcotest.fail "expected two series"

let test_mean_and_win_fraction () =
  let s = { Metrics.label = "x"; values = [| 0.5; 0.9; 1.0; 1.5 |] } in
  let mean, wins = Metrics.mean_and_win_fraction s in
  checkf "mean" 0.975 mean;
  checkf "wins" 0.5 wins

let test_pairwise_counts () =
  let labels, m = Metrics.pairwise synthetic_results in
  Alcotest.(check (array string)) "labels" [| "HCPA"; "delta"; "time-cost" |] labels;
  (* HCPA vs delta: 100<80? worse; 100<120 better; 200>100 worse -> 1/0/2 *)
  let c = m.(0).(1) in
  check Alcotest.int "hcpa better than delta" 1 c.Metrics.better;
  check Alcotest.int "hcpa equal delta" 0 c.Metrics.equal;
  check Alcotest.int "hcpa worse than delta" 2 c.Metrics.worse;
  (* Symmetry: delta vs hcpa mirrors. *)
  let c' = m.(1).(0) in
  check Alcotest.int "mirror better" 2 c'.Metrics.better;
  check Alcotest.int "mirror worse" 1 c'.Metrics.worse;
  (* hcpa vs timecost: 100>50 worse; 100=100 equal; 200>100 worse *)
  let c2 = m.(0).(2) in
  check Alcotest.int "hcpa equal tc" 1 c2.Metrics.equal;
  check Alcotest.int "hcpa worse tc" 2 c2.Metrics.worse

let test_pairwise_sums () =
  let _, m = Metrics.pairwise synthetic_results in
  let n = List.length synthetic_results in
  for i = 0 to 2 do
    for j = 0 to 2 do
      if i <> j then begin
        let c = m.(i).(j) in
        check Alcotest.int "cells sum to n" n
          (c.Metrics.better + c.Metrics.equal + c.Metrics.worse)
      end
    done
  done

let test_combined_percent () =
  let _, m = Metrics.pairwise synthetic_results in
  let _, pct = Metrics.combined_percent m 0 in
  Alcotest.(check (float 1e-9)) "percentages sum to 100" 100.
    (pct.(0) +. pct.(1) +. pct.(2))

let test_degradation () =
  match Metrics.degradation_from_best synthetic_results with
  | [ hcpa; delta; timecost ] ->
      (* Experiment bests: 50, 100, 100.
         HCPA: 100/50-1=100%, 0%, 100% -> avg over all 66.67, not-best 2. *)
      Alcotest.(check (float 1e-6)) "hcpa avg all" (200. /. 3.)
        hcpa.Metrics.avg_over_all;
      check Alcotest.int "hcpa not best" 2 hcpa.Metrics.n_not_best;
      Alcotest.(check (float 1e-6)) "hcpa avg not best" 100.
        hcpa.Metrics.avg_over_not_best;
      (* delta: 80/50-1=60%, 20%, 0% best -> not best 2, avg all 26.67 *)
      check Alcotest.int "delta not best" 2 delta.Metrics.n_not_best;
      Alcotest.(check (float 1e-6)) "delta avg all" (80. /. 3.)
        delta.Metrics.avg_over_all;
      (* timecost is best everywhere *)
      check Alcotest.int "tc always best" 0 timecost.Metrics.n_not_best;
      Alcotest.(check (float 1e-6)) "tc zero degradation" 0.
        timecost.Metrics.avg_over_all
  | _ -> Alcotest.fail "expected three entries"

let test_equal_tolerance () =
  let r =
    {
      Runner.config = { Suite.spec = Suite.Strassen; sample = 9 };
      cluster = "synthetic";
      hcpa = { Runner.makespan = 100.; work = 1. };
      delta = { Runner.makespan = 100.00001; work = 1. };
      timecost = { Runner.makespan = 99.99999; work = 1. };
    }
  in
  let _, m = Metrics.pairwise [ r ] in
  check Alcotest.int "tiny differences are equal" 1 m.(0).(1).Metrics.equal;
  check Alcotest.int "tiny differences are equal (2)" 1 m.(0).(2).Metrics.equal

(* --- Tuning ------------------------------------------------------------------ *)

let tiny_configs =
  [ { Suite.spec = Suite.Fft { k = 2 }; sample = 0 };
    { Suite.spec = Suite.Strassen; sample = 1 } ]

let test_sweep_delta_grid () =
  let points = Tuning.sweep_delta Cluster.chti tiny_configs in
  check Alcotest.int "4 x 5 grid" 20 (List.length points);
  List.iter
    (fun (pt : Tuning.delta_point) ->
      Alcotest.(check bool) "positive relative makespan" true
        (pt.Tuning.avg_relative_makespan > 0.))
    points

let test_sweep_timecost_grid () =
  let points = Tuning.sweep_timecost Cluster.chti tiny_configs in
  check Alcotest.int "2 x 6 grid" 12 (List.length points);
  let on = List.filter (fun (p : Tuning.timecost_point) -> p.Tuning.packing) points in
  check Alcotest.int "half with packing" 6 (List.length on)

let test_no_modification_point_is_neutral () =
  (* (mindelta, maxdelta) = (0, 0) forbids every allocation change; only the
     delta ready-list ordering may still differ from the baseline, so the
     relative makespan sits close to 1. *)
  let points = Tuning.sweep_delta Cluster.chti tiny_configs in
  match
    List.find_opt
      (fun (p : Tuning.delta_point) ->
        p.Tuning.mindelta = 0. && p.Tuning.maxdelta = 0.)
      points
  with
  | Some p ->
      Alcotest.(check bool) "close to 1" true
        (Float.abs (p.Tuning.avg_relative_makespan -. 1.) < 0.15)
  | None -> Alcotest.fail "missing (0,0) grid point"

let test_best_picks_minimum () =
  let dp =
    [
      { Tuning.mindelta = 0.; maxdelta = 0.5; avg_relative_makespan = 0.9 };
      { Tuning.mindelta = -0.5; maxdelta = 1.; avg_relative_makespan = 0.8 };
    ]
  in
  let tp =
    [
      { Tuning.packing = true; minrho = 0.4; avg_relative_makespan = 0.7 };
      { Tuning.packing = false; minrho = 0.2; avg_relative_makespan = 0.5 };
      { Tuning.packing = true; minrho = 0.6; avg_relative_makespan = 0.9 };
    ]
  in
  let t = Option.get (Tuning.best dp tp) in
  checkf "best mindelta" (-0.5) t.Tuning.delta.Rats.mindelta;
  checkf "best maxdelta" 1. t.Tuning.delta.Rats.maxdelta;
  (* Packing-off points are ignored: the tuned setting always packs. *)
  checkf "best minrho among packing" 0.4 t.Tuning.minrho;
  check Alcotest.bool "no point, no tuned cell" true (Tuning.best dp [] = None)

let test_tuning_configs_subsample () =
  List.iter
    (fun kind ->
      let configs = Tuning.tuning_configs Suite.Paper kind in
      Alcotest.(check bool) "at most 24" true (List.length configs <= 24);
      List.iter
        (fun c -> check Alcotest.int "first sample only" 0 c.Suite.sample)
        configs)
    [ `Layered; `Irregular; `Fft; `Strassen ]

let test_tuned_for_lookup () =
  let tuned =
    { Tuning.delta = { Rats.mindelta = 0.; maxdelta = 1. }; minrho = 0.4 }
  in
  let table = [ ("chti", [ (`Fft, Some tuned) ]) ] in
  let t = Option.get (Tuning.tuned_for table ~cluster:"chti" ~kind:`Fft) in
  checkf "lookup" 0.4 t.Tuning.minrho

(* --- Figures ------------------------------------------------------------------ *)

let test_figure_printers () =
  let results = Lazy.force small_results in
  let s = Format.asprintf "%a" (fun ppf () -> Figures.fig2 ppf results) () in
  Alcotest.(check bool) "fig2 mentions both strategies" true
    (contains s "delta" && contains s "time-cost");
  let s3 = Format.asprintf "%a" (fun ppf () -> Figures.fig3 ppf results) () in
  Alcotest.(check bool) "fig3 about work" true (contains s3 "work");
  let t1 = Format.asprintf "%a" (fun ppf () -> Figures.table1 ppf) () in
  Alcotest.(check bool) "table1 has the 2.5-unit split" true (contains t1 "1.5");
  let t2 = Format.asprintf "%a" (fun ppf () -> Figures.table2 ppf) () in
  Alcotest.(check bool) "table2 lists grelon" true (contains t2 "grelon");
  let t3 =
    Format.asprintf "%a" (fun ppf () -> Figures.table3 ppf Suite.Paper) ()
  in
  Alcotest.(check bool) "table3 has 557" true (contains t3 "557")

let test_empty_series_printers () =
  let print fig = Format.asprintf "%a" (fun ppf () -> fig ppf []) () in
  List.iter
    (fun (name, fig) ->
      Alcotest.(check bool)
        (name ^ " of a sweep with no results") true
        (contains (print fig) "n=0 mean=- improved-in=-"))
    [ ("fig2", Figures.fig2); ("fig3", Figures.fig3) ]

let test_table5_table6_printers () =
  let per_cluster = [ ("chti", synthetic_results) ] in
  let t5 = Format.asprintf "%a" (fun ppf () -> Figures.table5 ppf per_cluster) () in
  Alcotest.(check bool) "table5 mentions combined" true (contains t5 "combined");
  let t6 = Format.asprintf "%a" (fun ppf () -> Figures.table6 ppf per_cluster) () in
  Alcotest.(check bool) "table6 mentions degradation" true
    (contains t6 "degradation")

let test_write_csv () =
  let path = Filename.temp_file "rats" ".csv" in
  Figures.write_csv path synthetic_results;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  check Alcotest.int "header + rows" 4 (List.length !lines);
  Alcotest.(check bool) "header labels" true
    (contains (List.nth !lines 3) "hcpa_makespan")


(* --- Ablation ----------------------------------------------------------------- *)

module Ablation = Rats_exp.Ablation

let ablation_configs =
  [ { Suite.spec = Suite.Fft { k = 2 }; sample = 0 };
    { Suite.spec = Suite.Strassen; sample = 2 } ]

let test_ablation_placement () =
  let rows = Ablation.placement_study Cluster.chti ablation_configs in
  check Alcotest.int "two strategies" 2 (List.length rows);
  List.iter
    (fun (_, r) ->
      let r = Option.get r in
      Alcotest.(check bool) "ratios sane" true
        (r.Ablation.mean_ratio > 0.3 && r.Ablation.mean_ratio < 5.
        && r.Ablation.max_ratio >= r.Ablation.mean_ratio -. 1e-9))
    rows

let test_ablation_replay () =
  let rows = Ablation.replay_study Cluster.chti ablation_configs in
  List.iter
    (fun (_, r) ->
      Alcotest.(check bool) "strict not hugely faster" true
        ((Option.get r).Ablation.mean_ratio > 0.8))
    rows

let test_ablation_window_monotone () =
  (* A larger TCP window can only help (weakly): mean makespans must be
     non-increasing along the sweep. *)
  let rows =
    List.map (fun (w, m) -> (w, Option.get m))
      (Ablation.window_study ablation_configs)
  in
  check Alcotest.int "five windows" 5 (List.length rows);
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b -. 1e-6 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "non-increasing in window size" true (monotone rows)

let test_ablation_purity () =
  let rows = Ablation.purity_study Cluster.chti ablation_configs in
  check Alcotest.int "four rows" 4 (List.length rows);
  (match rows with
  | ("time-cost RATS", Some v) :: _ ->
      Alcotest.(check (float 1e-9)) "normalized to itself" 1. v
  | _ -> Alcotest.fail "unexpected ordering");
  List.iter
    (fun (_, v) -> Alcotest.(check bool) "positive" true (Option.get v > 0.))
    rows

let test_ablation_study_configs () =
  let configs = Ablation.study_configs Suite.Paper in
  Alcotest.(check bool) "bounded" true (List.length configs <= 20);
  List.iter
    (fun c -> check Alcotest.int "first samples" 0 c.Suite.sample)
    configs

(* --- Autotune ----------------------------------------------------------------- *)

module Autotune = Rats_exp.Autotune

let autotune_problem () =
  let dag = Suite.generate { Suite.spec = Suite.Fft { k = 4 }; sample = 5 } in
  Rats_core.Problem.make ~dag ~cluster:Cluster.grillon

let test_autotune_features () =
  let f = Autotune.features (autotune_problem ()) in
  Alcotest.(check bool) "parallelism at least 1" true (f.Autotune.avg_parallelism >= 1.);
  Alcotest.(check bool) "ccr positive" true (f.Autotune.ccr > 0.);
  Alcotest.(check bool) "procs/parallelism consistent" true
    (Float.abs
       (f.Autotune.procs_per_parallelism -. (47. /. f.Autotune.avg_parallelism))
    < 1e-9)

let test_autotune_probe_in_grid () =
  let p = autotune_problem () in
  let alloc = Rats_core.Hcpa.allocate p in
  let d = Autotune.probe_delta ~alloc p in
  Alcotest.(check bool) "mindelta from grid" true
    (List.mem d.Rats.mindelta Tuning.mindelta_values);
  Alcotest.(check bool) "maxdelta from grid" true
    (List.mem d.Rats.maxdelta Tuning.maxdelta_values);
  let t = Autotune.probe_timecost ~alloc p in
  Alcotest.(check bool) "minrho from grid" true
    (List.mem t.Rats.minrho Tuning.minrho_values)

let test_autotune_probe_not_worse_by_estimate () =
  (* The probed parameters must beat (or tie) the naive ones on the metric
     the probe optimizes: the estimated makespan. *)
  let p = autotune_problem () in
  let alloc = Rats_core.Hcpa.allocate p in
  let est strategy =
    Rats_core.Schedule.makespan_estimated (Rats_core.Rats.schedule ~alloc p strategy)
  in
  let probed = Autotune.probe_delta ~alloc p in
  Alcotest.(check bool) "probe beats naive delta (estimated)" true
    (est (Rats.Delta probed) <= est (Rats.Delta Rats.naive_delta) +. 1e-9)

let test_autotune_rules_domains () =
  let f = Autotune.features (autotune_problem ()) in
  let d = Autotune.rules_delta f in
  Alcotest.(check bool) "mindelta in domain" true
    (d.Rats.mindelta <= 0. && d.Rats.mindelta >= -1.);
  Alcotest.(check (float 1e-9)) "maxdelta is generous" 1. d.Rats.maxdelta;
  let t = Autotune.rules_timecost f in
  Alcotest.(check bool) "minrho in (0,1]" true
    (t.Rats.minrho > 0. && t.Rats.minrho <= 1.);
  Alcotest.(check bool) "packing on" true t.Rats.packing

let test_autotune_selector_study () =
  let rows = Autotune.selector_study Cluster.chti ablation_configs in
  check Alcotest.int "five selectors" 5 (List.length rows);
  List.iter
    (fun (_, v) ->
      let v = Option.get v in
      Alcotest.(check bool) "sane ratio" true (v > 0.2 && v < 5.))
    rows


(* --- Studies through the cell executor ---------------------------------------- *)

module Ccr_sweep = Rats_exp.Ccr_sweep

let fault_of_spec spec =
  match Rats_runtime.Fault.parse spec with
  | Ok f -> f
  | Error reason -> Alcotest.fail reason

(* Every study, run on the given context. *)
let studies : (string * (Exec.t -> string)) list =
  let chti = Cluster.chti and configs = ablation_configs in
  [
    ("sweep_delta", fun exec -> bits (Tuning.sweep_delta ~exec chti configs));
    ("sweep_timecost", fun exec -> bits (Tuning.sweep_timecost ~exec chti configs));
    ("tune_cell", fun exec -> bits (Tuning.tune_cell ~exec chti configs));
    ("placement_study", fun exec -> bits (Ablation.placement_study ~exec chti configs));
    ("replay_study", fun exec -> bits (Ablation.replay_study ~exec chti configs));
    ("purity_study", fun exec -> bits (Ablation.purity_study ~exec chti configs));
    ("window_study", fun exec -> bits (Ablation.window_study ~exec configs));
    ("selector_study", fun exec -> bits (Autotune.selector_study ~exec chti configs));
    ("ccr", fun exec -> bits (Ccr_sweep.run ~exec chti configs));
  ]

let test_study_cache study () =
  let exec ?cache ?fault () = Exec.make ~jobs:1 ?cache ?fault () in
  let reference = study (exec ()) in
  (* Warm replay: a cold run stores what the uncached run computes, and a
     new cache on the same directory returns it without recomputing. *)
  with_cache_dir (fun dir ->
      check Alcotest.bool "cold run = uncached run" true
        (study (exec ~cache:(Cache.create ~dir ()) ()) = reference);
      let warm = Cache.create ~dir () in
      check Alcotest.bool "warm replay bit for bit" true
        (study (exec ~cache:warm ()) = reference);
      check Alcotest.int "warm replay misses" 0 (Cache.misses warm);
      check Alcotest.bool "warm replay hits" true (Cache.hits warm > 0));
  (* No degraded store: a record whose unit failed is not stored, so a
     clean rerun recomputes it and matches the uncached run. Seed 1 fails
     one of the two configurations in every study. *)
  with_cache_dir (fun dir ->
      let faulty =
        exec ~cache:(Cache.create ~dir ())
          ~fault:(fault_of_spec "seed=1,crash@worker=0.5") ()
      in
      ignore (study faulty);
      check Alcotest.bool "the faulty run lost units" true
        (Atomic.get faulty.Exec.stats.Exec.failed > 0);
      let clean = Cache.create ~dir () in
      check Alcotest.bool "clean rerun = uncached run" true
        (study (exec ~cache:clean ()) = reference);
      check Alcotest.bool "clean rerun recomputes" true (Cache.misses clean > 0);
      check Alcotest.bool "the surviving records were stored" true
        (Cache.hits clean > 0))

(* Under a crash on every unit each study still returns: a value with no
   surviving measurement is absent, and nothing raises. *)
let test_study_all_failed () =
  let exec () =
    Exec.make ~jobs:1 ~fault:(fault_of_spec "crash@worker=1") ()
  in
  let chti = Cluster.chti and configs = ablation_configs in
  check Alcotest.int "no delta point" 0
    (List.length (Tuning.sweep_delta ~exec:(exec ()) chti configs));
  check Alcotest.int "no time-cost point" 0
    (List.length (Tuning.sweep_timecost ~exec:(exec ()) chti configs));
  check Alcotest.bool "no tuned cell" true
    (Tuning.tune_cell ~exec:(exec ()) chti configs = None);
  List.iter
    (fun (study, rows) ->
      check Alcotest.bool (study ^ ": every row empty") true
        (List.for_all (fun (_, r) -> r = None) rows))
    [
      ("placement", Ablation.placement_study ~exec:(exec ()) chti configs);
      ("replay", Ablation.replay_study ~exec:(exec ()) chti configs);
    ];
  check Alcotest.bool "window: every mean empty" true
    (List.for_all (fun (_, m) -> m = None)
       (Ablation.window_study ~exec:(exec ()) configs));
  check Alcotest.bool "purity: every row empty" true
    (List.for_all (fun (_, v) -> v = None)
       (Ablation.purity_study ~exec:(exec ()) chti configs));
  check Alcotest.bool "selectors: every mean empty" true
    (List.for_all (fun (_, v) -> v = None)
       (Autotune.selector_study ~exec:(exec ()) chti configs));
  check Alcotest.int "no ccr point" 0
    (List.length (Ccr_sweep.run ~exec:(exec ()) chti configs));
  let printed =
    Format.asprintf "%a"
      (fun ppf () -> Rats_exp.Ablation.print_all ~exec:(exec ()) ppf Suite.Smoke)
      ()
  in
  check Alcotest.bool "the ablation report prints dashes" true
    (contains printed "hcpa         -" && contains printed "mean makespan -");
  (* A Table IV cell without points fails its tuned-suite configurations,
     even on a context without faults. *)
  let exec = Exec.make ~jobs:1 () in
  let table =
    [ ("chti", List.map (fun kind -> (kind, None)) [ `Fft; `Strassen; `Layered; `Irregular ]) ]
  in
  check Alcotest.int "no tuned result" 0
    (List.length (Figures.run_tuned_suite ~exec Suite.Smoke table Cluster.chti));
  check Alcotest.int "every configuration counted as failed"
    (Suite.n_configs Suite.Smoke)
    (Atomic.get exec.Exec.stats.Exec.failed)

(* A Table IV cell is one batch over both sweeps' cells, so it replays the
   records Figures 4 and 5 stored: one hit per configuration. *)
let test_tune_cell_replays_sweeps () =
  let chti = Cluster.chti and configs = ablation_configs in
  with_cache_dir (fun dir ->
      let exec cache = Exec.make ~jobs:1 ~cache () in
      let cold = exec (Cache.create ~dir ()) in
      let delta = Tuning.sweep_delta ~exec:cold chti configs in
      let timecost = Tuning.sweep_timecost ~exec:cold chti configs in
      let warm = Cache.create ~dir () in
      let cell = Tuning.tune_cell ~exec:(exec warm) chti configs in
      check Alcotest.int "no misses" 0 (Cache.misses warm);
      check Alcotest.int "one hit per configuration" (List.length configs)
        (Cache.hits warm);
      check Alcotest.bool "the arg-min of the stored sweeps" true
        (bits cell = bits (Tuning.best delta timecost)))

(* The study prepares each configuration once: one HCPA allocation shared
   by the baseline, every selector and every probe. *)
let test_selector_study_allocates_once () =
  let (_ : (string * float option) list), allocs =
    counted Instr.alloc_runs (fun () ->
        Autotune.selector_study ~exec:(Exec.make ~jobs:1 ()) Cluster.chti
          ablation_configs)
  in
  check Alcotest.int "one allocation per configuration"
    (List.length ablation_configs) allocs

(* A Table IV cell allocates each configuration once, although both its
   sweeps map it. *)
let test_tune_cell_allocates_once () =
  let _, allocs =
    counted Instr.alloc_runs (fun () ->
        Tuning.tune_cell ~exec:(Exec.make ~jobs:1 ()) Cluster.chti
          ablation_configs)
  in
  check Alcotest.int "one allocation per configuration"
    (List.length ablation_configs) allocs

(* --- CCR sweep ----------------------------------------------------------------- *)

let test_ccr_sweep () =
  let points = Ccr_sweep.run Cluster.chti [ List.hd ablation_configs ] in
  check Alcotest.int "one point per factor"
    (List.length Ccr_sweep.flop_factors)
    (List.length points);
  (* CCR decreases as the flop factor grows. *)
  let rec decreasing = function
    | (a : Ccr_sweep.point) :: (b : Ccr_sweep.point) :: rest ->
        a.Ccr_sweep.ccr < b.Ccr_sweep.ccr && decreasing (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "ccr grows along the sweep" true (decreasing points);
  List.iter
    (fun (p : Ccr_sweep.point) ->
      Alcotest.(check bool) "sane ratios" true
        (p.Ccr_sweep.delta_relative > 0.2
        && p.Ccr_sweep.timecost_relative > 0.2
        && p.Ccr_sweep.delta_relative < 5.))
    points

let () =
  Alcotest.run "rats_exp"
    [
      ( "runner",
        [
          Alcotest.test_case "measurements positive" `Slow test_run_config_positive;
          Alcotest.test_case "custom parameters" `Quick test_run_config_custom_params;
          Alcotest.test_case "strategy measurement" `Quick test_strategy_measurement;
          Alcotest.test_case "duplicate cells simulated once" `Quick
            test_duplicate_cells_once;
          Alcotest.test_case "a record grows" `Quick test_record_grows;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "series sorted" `Quick test_relative_series_sorted;
          Alcotest.test_case "relative values" `Quick test_relative_values;
          Alcotest.test_case "mean and wins" `Quick test_mean_and_win_fraction;
          Alcotest.test_case "pairwise counts" `Quick test_pairwise_counts;
          Alcotest.test_case "pairwise sums" `Quick test_pairwise_sums;
          Alcotest.test_case "combined percent" `Quick test_combined_percent;
          Alcotest.test_case "degradation" `Quick test_degradation;
          Alcotest.test_case "equality tolerance" `Quick test_equal_tolerance;
        ] );
      ( "tuning",
        [
          Alcotest.test_case "delta grid" `Slow test_sweep_delta_grid;
          Alcotest.test_case "timecost grid" `Slow test_sweep_timecost_grid;
          Alcotest.test_case "(0,0) is neutral" `Slow
            test_no_modification_point_is_neutral;
          Alcotest.test_case "best picks minimum" `Quick test_best_picks_minimum;
          Alcotest.test_case "tuning subsample" `Quick test_tuning_configs_subsample;
          Alcotest.test_case "tuned_for lookup" `Quick test_tuned_for_lookup;
          Alcotest.test_case "tune_cell allocates once" `Slow
            test_tune_cell_allocates_once;
        ] );
      ( "figures",
        [
          Alcotest.test_case "printers" `Slow test_figure_printers;
          Alcotest.test_case "table 5 and 6" `Quick test_table5_table6_printers;
          Alcotest.test_case "csv export" `Quick test_write_csv;
          Alcotest.test_case "empty series" `Quick test_empty_series_printers;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "placement" `Slow test_ablation_placement;
          Alcotest.test_case "replay" `Slow test_ablation_replay;
          Alcotest.test_case "window monotone" `Slow test_ablation_window_monotone;
          Alcotest.test_case "purity" `Slow test_ablation_purity;
          Alcotest.test_case "study configs" `Quick test_ablation_study_configs;
        ] );
      ( "autotune",
        [
          Alcotest.test_case "features" `Quick test_autotune_features;
          Alcotest.test_case "probe in grid" `Quick test_autotune_probe_in_grid;
          Alcotest.test_case "probe beats naive (estimate)" `Quick
            test_autotune_probe_not_worse_by_estimate;
          Alcotest.test_case "rules domains" `Quick test_autotune_rules_domains;
          Alcotest.test_case "selector study" `Slow test_autotune_selector_study;
          Alcotest.test_case "selector study allocates once" `Slow
            test_selector_study_allocates_once;
        ] );
      ( "whole-study cache",
        List.map
          (fun (name, study) ->
            Alcotest.test_case name `Slow (test_study_cache study))
          studies
        @ [
            Alcotest.test_case "tune_cell replays the sweeps" `Slow
              test_tune_cell_replays_sweeps;
          ] );
      ( "ccr",
        [ Alcotest.test_case "sweep" `Slow test_ccr_sweep ] );
      ( "faults",
        [
          Alcotest.test_case "every study survives a crash on every unit"
            `Slow test_study_all_failed;
        ] );
    ]
