(* The ratsd engine in-process: one compiled multi-tenant trace submitted
   through [Engine.submit] and run with [Engine.drain], once per scheduler
   arm (delta, hcpa, time-cost) on a fresh engine each. A planner hook
   wraps [Api.plan] to time each job's scheduling, which is the per-op
   latency: the time the service takes to schedule a job. About 15
   distinct DAG specs are re-planned across the trace, and concurrent jobs
   share one simulator.

   The admission policy is the one the workload studies of
   [bench/main.exe] use (queue-wait deadline 400 s, queue 32, tenant 8),
   which the mixed profile's bursts push into load shedding, rejection and
   expiry. A rejected or expired job is an admission outcome, not a failed
   op; only a submission [Engine.submit] refuses is. *)

module Cluster = Rats_platform.Cluster
module Api = Rats_server.Api
module Admission = Rats_server.Admission
module Engine = Rats_server.Engine
module Load = Rats_server.Load
module Profile = Rats_workload.Profile
module Trace = Rats_workload.Trace
module Json = Rats_obs.Json
module Core = Rats_core

let cluster = Cluster.grillon
let jobs_per_trace = 2400

let policy = Admission.make ~deadline_s:400. ~queue_limit:32 ~tenant_limit:8 ()

let arms =
  [
    Core.Rats.Delta Core.Rats.naive_delta;
    Core.Rats.Baseline;
    Core.Rats.Timecost Core.Rats.naive_timecost;
  ]

type inputs = { requests : (float * Api.request) array }

let setup ~seed =
  let spec = Printf.sprintf "mixed:jobs=%d" jobs_per_trace in
  match Profile.of_string ~cluster ~seed:(42 + seed) spec with
  | Error e -> failwith ("service-mixed profile: " ^ e)
  | Ok profile ->
      {
        requests =
          Array.map
            (fun (j : Trace.job) -> (j.Trace.at, Load.request_of_job j))
            (Trace.compile profile);
      }

(* [Api.plan] rebuilt from its public parts, one span per layer. *)
let plan tracer ~cluster (r : Api.request) =
  let span name f = Layers.span tracer name f in
  let dag = span "daggen" (fun () -> Api.dag_of_spec r.Api.job) in
  let problem = span "problem" (fun () -> Core.Problem.make ~dag ~cluster) in
  let alloc = span "alloc" (fun () -> Core.Hcpa.allocate problem) in
  span "map" (fun () -> Core.Rats.schedule ~alloc problem r.Api.strategy)

(* What is kept of an arm once it has run: its events are reduced to a
   digest and checks right away, so at most one arm's event log is alive
   and peak RSS measures the engine, not the benchmark's bookkeeping. *)
type arm = {
  stats : Engine.stats;
  log_digest : string;  (** MD5 over the per-event MD5s of the event log. *)
  n_events : int;
  errors : string list;
  latencies : float list;
  tasks : int;  (** Tasks of every DAG the planner built. *)
  refused : int;  (** Submissions [Engine.submit] rejected outright. *)
  wall_s : float;
}

let check_arm name (s : Engine.stats) ~refused events =
  let rec increasing = function
    | (a : Api.stamped) :: (b :: _ as rest) -> a.Api.seq < b.Api.seq && increasing rest
    | _ -> true
  in
  List.filter_map
    (fun (ok, msg) -> if ok then None else Some (name ^ ": " ^ msg))
    [
      ( s.Engine.submitted = s.Engine.completed + s.Engine.rejected + s.Engine.expired,
        "submitted <> completed + rejected + expired" );
      (increasing events, "event seq not strictly increasing");
      (refused = 0, "submissions refused");
      ( Array.for_all Workload.finite_pos s.Engine.sojourns,
        "non-finite or non-positive sojourn" );
    ]

let run_arm inputs tracer strategy =
  let latencies = ref [] and tasks = ref 0 in
  (* Engine [jobs = 1]: the hook runs on this domain, one job at a time. *)
  let planner ~cluster (r : Api.request) =
    let t0 = Workload.now () in
    let r = { r with Api.strategy } in
    let s =
      match tracer with
      | None -> Api.plan ~cluster r
      | Some _ -> plan tracer ~cluster r
    in
    latencies := (Workload.now () -. t0) :: !latencies;
    tasks := !tasks + Core.Schedule.n_tasks s;
    s
  in
  let (engine, refused), wall_s =
    Workload.timed (fun () ->
        let engine =
          Layers.span tracer "bench" (fun () ->
              Engine.create
                {
                  (Engine.default_config cluster) with
                  policy;
                  jobs = Some 1;
                  planner = Some planner;
                })
        in
        let refused =
          Array.fold_left
            (fun refused (at, r) ->
              match
                Layers.span tracer "server.submit" (fun () ->
                    Engine.submit engine ~at r)
              with
              | Ok (_ : int) -> refused
              | Error (_ : string) -> refused + 1)
            0 inputs.requests
        in
        ignore (Layers.span tracer "server.engine" (fun () -> Engine.drain engine));
        (engine, refused))
  in
  let stats = Engine.stats engine and events = Engine.events engine in
  {
    stats;
    log_digest =
      Digest.string
        (String.concat ""
           (List.map
              (fun e -> Digest.string (Json.to_string (Api.stamped_to_json e)))
              events));
    n_events = List.length events;
    errors = check_arm (Core.Rats.strategy_name strategy) stats ~refused events;
    latencies = List.rev !latencies;
    tasks = !tasks;
    refused;
    wall_s;
  }

let pass inputs ~scratch:_ ~tracer =
  let results = List.map (run_arm inputs tracer) arms in
  let sum f = List.fold_left (fun acc a -> acc + f a) 0 results in
  let sojourns = Array.concat (List.map (fun a -> a.stats.Engine.sojourns) results) in
  {
    Workload.ops = sum (fun a -> a.stats.Engine.submitted + a.refused);
    failed = sum (fun a -> a.refused);
    latencies = Array.of_list (List.concat_map (fun a -> a.latencies) results);
    wall_s = List.fold_left (fun acc a -> acc +. a.wall_s) 0. results;
    digest = Workload.md5_hex (String.concat "" (List.map (fun a -> a.log_digest) results));
    errors = List.concat_map (fun a -> a.errors) results;
    facts =
      (* Jobs admission turned away: these miss any latency limit. *)
      ( "refused_frac",
        float_of_int (sum (fun a -> a.stats.Engine.rejected + a.stats.Engine.expired))
        /. float_of_int (sum (fun a -> a.stats.Engine.submitted)) )
      ::
      (match Stats.percentile ~permille:990 sojourns with
      | Some p99 -> [ ("sojourn_p99_sim_s", p99) ]
      | None -> []);
    counts =
      [
        ("daggen.tasks", float_of_int (sum (fun a -> a.tasks)));
        ("server.events", float_of_int (sum (fun a -> a.n_events)));
        ( "server.queue_depth_max",
          float_of_int
            (List.fold_left (fun m a -> max m a.stats.Engine.queue_depth_max) 0 results) );
        ("server.completed", float_of_int (sum (fun a -> a.stats.Engine.completed)));
        ("server.rejected", float_of_int (sum (fun a -> a.stats.Engine.rejected)));
        ("server.expired", float_of_int (sum (fun a -> a.stats.Engine.expired)));
      ];
  }

let workload =
  Workload.W { Workload.name = "service-mixed"; jobs = 1; setup; pass }
