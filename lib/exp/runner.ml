module Suite = Rats_daggen.Suite
module Cluster = Rats_platform.Cluster
module Core = Rats_core
module Cache = Rats_runtime.Cache
module Exec = Rats_runtime.Exec
module Retry = Rats_runtime.Retry
module Progress = Rats_runtime.Progress

type measurement = { makespan : float; work : float }

type result = {
  config : Suite.config;
  cluster : string;
  hcpa : measurement;
  delta : measurement;
  timecost : measurement;
}

type failure = {
  config : Suite.config;
  cluster : string;
  error : Retry.failure;
}

type sweep = { results : result list; failed : failure list; total : int }

let strategy_measurement ?alloc problem strategy =
  let outcome = Core.Algorithms.run ?alloc problem strategy in
  {
    makespan = Core.Algorithms.makespan outcome;
    work = Core.Algorithms.work outcome;
  }

(* --- result cache ------------------------------------------------------- *)

let cache_key ~cluster ~delta ~timecost config =
  Cache.key
    [
      "runner.run_config";
      Cluster.signature cluster;
      Suite.name config;
      Printf.sprintf "%h/%h" delta.Core.Rats.mindelta delta.Core.Rats.maxdelta;
      Printf.sprintf "%h/%b" timecost.Core.Rats.minrho
        timecost.Core.Rats.packing;
    ]

let encode_result r =
  Payload.floats
    [
      r.hcpa.makespan;
      r.hcpa.work;
      r.delta.makespan;
      r.delta.work;
      r.timecost.makespan;
      r.timecost.work;
    ]

let decode_result ~config ~cluster payload =
  match Payload.to_floats payload with
  | Some [ a; b; c; d; e; f ] ->
      Some
        {
          config;
          cluster;
          hcpa = { makespan = a; work = b };
          delta = { makespan = c; work = d };
          timecost = { makespan = e; work = f };
        }
  | _ -> None

(* --- execution ---------------------------------------------------------- *)

let compute_config ~delta ~timecost cluster config =
  (* Same pipeline as the online service (Server.Api): DAG generation,
     problem construction, HCPA allocation — bit-identical to the historic
     inline sequence. *)
  let problem, alloc =
    Rats_server.Api.prepare ~cluster (Rats_server.Api.Generated config)
  in
  {
    config;
    cluster = cluster.Cluster.name;
    hcpa = strategy_measurement ~alloc problem Core.Rats.Baseline;
    delta = strategy_measurement ~alloc problem (Core.Rats.Delta delta);
    timecost = strategy_measurement ~alloc problem (Core.Rats.Timecost timecost);
  }

let task_name cluster config = cluster.Cluster.name ^ "/" ^ Suite.name config

(* One configuration through the full fault-tolerance stack: cache lookup,
   journal replay, fault points, retries and timeout. *)
let run_config_outcome ?(delta = Core.Rats.naive_delta)
    ?(timecost = Core.Rats.naive_timecost) ~exec cluster config =
  Exec.keyed exec
    ~name:(task_name cluster config)
    ~key:(cache_key ~cluster ~delta ~timecost config)
    ~encode:encode_result
    ~decode:(decode_result ~config ~cluster:cluster.Cluster.name)
    (fun () -> compute_config ~delta ~timecost cluster config)

let run_config ?(delta = Core.Rats.naive_delta)
    ?(timecost = Core.Rats.naive_timecost) ?cache cluster config =
  Exec.cached (Exec.make ?cache ())
    ~key:(cache_key ~cluster ~delta ~timecost config)
    ~encode:encode_result
    ~decode:(decode_result ~config ~cluster:cluster.Cluster.name)
    (fun () -> compute_config ~delta ~timecost cluster config)

let run_sweep ?(delta = Core.Rats.naive_delta)
    ?(timecost = Core.Rats.naive_timecost) ?(progress = false)
    ?(exec = Exec.make ()) scale cluster =
  let configs = Suite.all scale in
  let reporter =
    Progress.create ~enabled:progress ~label:cluster.Cluster.name
      ~total:(List.length configs) ()
  in
  let outcomes =
    Exec.map_outcome exec
      ~run:(fun config ->
        let o = run_config_outcome ~delta ~timecost ~exec cluster config in
        Progress.step
          ~cache_hit:(o.Exec.source = Exec.From_cache)
          ~resumed:(o.Exec.source = Exec.From_journal)
          ~failed:(Result.is_error o.Exec.value)
          ~retries:(o.Exec.attempts - 1) reporter;
        o)
      configs
  in
  Progress.finish reporter;
  let results, failed =
    List.fold_right2
      (fun config o (rs, fs) ->
        match o.Exec.value with
        | Ok r -> (r :: rs, fs)
        | Error error ->
            (rs, { config; cluster = cluster.Cluster.name; error } :: fs))
      configs outcomes ([], [])
  in
  { results; failed; total = List.length configs }

let pp_failures ppf sweep =
  match sweep.failed with
  | [] -> ()
  | failed ->
      Format.fprintf ppf "%d/%d configurations failed:@." (List.length failed)
        sweep.total;
      List.iter
        (fun f ->
          Format.fprintf ppf "  %s/%s: %s@." f.cluster (Suite.name f.config)
            (Retry.failure_to_string f.error))
        failed
