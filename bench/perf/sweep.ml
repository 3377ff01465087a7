(* The paper's Fig. 2 pipeline as users run it: every configuration goes
   through [Exec.map_outcome] -> [Runner.run_config_outcome] (HCPA, delta
   and time-cost schedules, each simulated), with a result cache and a
   write-ahead journal in a fresh directory, so every pass is cold.

   The configurations are the paper's fixed smoke suite; the seed only
   permutes the order in which they enter the pool. Results are therefore
   the same for every seed, and each pass's CSV must equal a committed
   golden byte for byte. (Shifting sample indices by the seed, as the suite
   allows, moves a pass's serial cost by 20-40%, far more than any bound a
   regression check could use.) *)

module Suite = Rats_daggen.Suite
module Cluster = Rats_platform.Cluster
module Runner = Rats_exp.Runner
module Figures = Rats_exp.Figures
module Exec = Rats_runtime.Exec
module Cache = Rats_runtime.Cache
module Journal = Rats_runtime.Journal
module Core = Rats_core
module Rng = Rats_util.Rng

type inputs = {
  cluster : Cluster.t;
  configs : Suite.config array;  (** Pool order. *)
  suite_index : int array;  (** Suite position of each pool slot. *)
  golden : string;  (** Path of the expected CSV, read by the checks. *)
}

let small config =
  match config.Suite.spec with
  | Suite.Layered { n_tasks; _ } | Suite.Irregular { n_tasks; _ } ->
      n_tasks <= 50
  | Suite.Fft _ | Suite.Strassen -> true

let setup ~cluster ~keep ~golden ~seed =
  let suite = Array.of_list (List.filter keep (Suite.all Suite.Smoke)) in
  let order = Array.init (Array.length suite) Fun.id in
  Rng.shuffle (Rng.create seed) order;
  { cluster; configs = Array.map (fun i -> suite.(i)) order; suite_index = order; golden }

(* Same [%h] payload as the runner stores, so cache and journal writes cost
   the same. *)
let encode (r : Runner.result) =
  Printf.sprintf "%h %h %h %h %h %h" r.hcpa.makespan r.hcpa.work
    r.delta.makespan r.delta.work r.timecost.makespan r.timecost.work

(* [Runner.compute_config] rebuilt from its public parts, one span per
   layer. *)
let compute tracer cluster config : Runner.result =
  let span name f = Layers.span tracer name f in
  let dag = span "daggen" (fun () -> Suite.generate config) in
  let problem = span "problem" (fun () -> Core.Problem.make ~dag ~cluster) in
  let alloc = span "alloc" (fun () -> Core.Hcpa.allocate problem) in
  let measure strategy =
    let schedule =
      span "map" (fun () -> Core.Rats.schedule ~alloc problem strategy)
    in
    let sim = span "evaluate" (fun () -> Core.Evaluate.run schedule) in
    {
      Runner.makespan = sim.Core.Evaluate.makespan;
      work = Core.Schedule.total_work schedule;
    }
  in
  {
    config;
    cluster = cluster.Cluster.name;
    hcpa = measure Core.Rats.Baseline;
    delta = measure (Core.Rats.Delta Core.Rats.naive_delta);
    timecost = measure (Core.Rats.Timecost Core.Rats.naive_timecost);
  }

let run_one ~exec tracer cluster config =
  match tracer with
  | None -> Runner.run_config_outcome ~exec cluster config
  | Some _ ->
      Layers.span tracer "runtime" (fun () ->
          Exec.keyed exec
            ~name:(cluster.Cluster.name ^ "/" ^ Suite.name config)
            ~key:
              (Cache.key
                 [ "perf.sweep"; Cluster.signature cluster; Suite.name config ])
            ~encode (* The scratch cache is fresh: nothing is ever decoded. *)
            ~decode:(fun _ -> None)
            (fun () -> compute tracer cluster config))

let pass ~jobs inputs ~scratch ~tracer =
  let n = Array.length inputs.configs in
  let cache = Cache.create ~dir:(Filename.concat scratch "cache") () in
  let journal =
    Journal.open_ ~dir:(Filename.concat scratch "journal") ~name:"perf"
      ~resume:false ()
  in
  let exec = Exec.make ~jobs ~cache ~journal () in
  (* One slot per index: pool workers never write the same cell. *)
  let latencies = Array.make n nan in
  let outcomes, wall_s =
    Workload.timed (fun () ->
        Exec.map_outcome exec
          ~run:(fun i ->
            let t0 = Workload.now () in
            let o =
              Layers.span tracer "bench" (fun () ->
                  run_one ~exec tracer inputs.cluster inputs.configs.(i))
            in
            latencies.(i) <- Workload.now () -. t0;
            o)
          (List.init n Fun.id))
  in
  Journal.close journal;
  let by_suite = Array.make n None in
  List.iteri
    (fun i (o : _ Exec.outcome) ->
      by_suite.(inputs.suite_index.(i)) <- Result.to_option o.Exec.value)
    outcomes;
  let results = List.filter_map Fun.id (Array.to_list by_suite) in
  let failed = n - List.length results in
  let csv_path = Filename.concat scratch "results.csv" in
  Figures.write_csv csv_path results;
  let csv = Workload.read_file csv_path in
  let bad =
    List.filter
      (fun (r : Runner.result) ->
        not
          (List.for_all
             (fun (m : Runner.measurement) ->
               Workload.finite_pos m.makespan && Workload.finite_pos m.work)
             [ r.hcpa; r.delta; r.timecost ]))
      results
  in
  let errors =
    (if csv = Workload.read_file inputs.golden then []
     else [ "results CSV differs from the golden" ])
    @ List.map
        (fun (r : Runner.result) ->
          "non-finite or non-positive makespan/work: " ^ Suite.name r.config)
        bad
  in
  let ratio =
    Rats_util.Stats.mean
      (Array.of_list
         (List.map
            (fun (r : Runner.result) -> r.delta.makespan /. r.hcpa.makespan)
            results))
  in
  {
    Workload.ops = n;
    failed = failed + List.length bad;
    latencies = Array.of_list (List.filter Float.is_finite (Array.to_list latencies));
    wall_s;
    digest = Workload.md5_hex csv;
    errors;
    facts = [ ("makespan_ratio", ratio) ];
    counts =
      [
        ("runtime.cache_misses", float_of_int (Cache.misses cache));
        ("runtime.journal_appends", float_of_int (Journal.appended journal));
      ];
  }

let workload ~name ~cluster ~keep ~golden ~jobs =
  Workload.W
    {
      Workload.name;
      jobs;
      setup = (fun ~seed -> setup ~cluster ~keep ~golden ~seed);
      pass = pass ~jobs;
    }

let grillon =
  workload ~name:"sweep-grillon" ~cluster:Cluster.grillon
    ~keep:(fun _ -> true)
    ~golden:"bench_results/naive_grillon.csv" ~jobs:2

let grelon =
  workload ~name:"sweep-grelon" ~cluster:Cluster.grelon ~keep:small
    ~golden:"bench/perf/golden/naive_grelon_small.csv" ~jobs:1
