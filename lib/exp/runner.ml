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

type prepared = {
  problem : Core.Problem.t;
  alloc : int array;
  baseline : measurement;
}

let simulate ~alloc problem strategy =
  let outcome = Core.Algorithms.run ~alloc problem strategy in
  {
    makespan = Core.Algorithms.makespan outcome;
    work = Core.Algorithms.work outcome;
  }

(* The paper's shared first step: every strategy maps the same HCPA
   allocation and is measured against the HCPA schedule. *)
let prepare cluster dag =
  let problem = Core.Problem.make ~dag ~cluster in
  let alloc = Core.Hcpa.allocate problem in
  { problem; alloc; baseline = simulate ~alloc problem Core.Rats.Baseline }

let measure p strategy = simulate ~alloc:p.alloc p.problem strategy

(* Even thinning keeps the whole shape spectrum represented. *)
let first_samples ~cap configs =
  let firsts = List.filter (fun c -> c.Suite.sample = 0) configs in
  let n = List.length firsts in
  if n <= cap then firsts
  else List.filteri (fun i _ -> i * cap / n <> (i - 1) * cap / n) firsts

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
  let p = prepare cluster (Suite.generate config) in
  {
    config;
    cluster = cluster.Cluster.name;
    hcpa = p.baseline;
    delta = measure p (Core.Rats.Delta delta);
    timecost = measure p (Core.Rats.Timecost timecost);
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
        Progress.step reporter;
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
