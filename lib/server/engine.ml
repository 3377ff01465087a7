module Cluster = Rats_platform.Cluster
module Procset = Rats_util.Procset
module Sim = Rats_sim.Engine
module Journal = Rats_runtime.Journal
module Pool = Rats_runtime.Pool
module Fault = Rats_runtime.Fault
module Schedule = Rats_core.Schedule
module Evaluate = Rats_core.Evaluate
module Rats = Rats_core.Rats
module J = Rats_obs.Json
module Metrics = Rats_obs.Metrics
module Instr = Rats_obs.Instr
module Report = Rats_workload.Report

type config = {
  cluster : Cluster.t;
  policy : Admission.policy;
  jobs : int option;
  clock : unit -> float;
  fault : Fault.t option;
  planner : (cluster:Cluster.t -> Api.request -> Schedule.t) option;
}

let default_config cluster =
  {
    cluster;
    policy = Admission.default;
    jobs = None;
    clock = Instr.now_s;
    fault = None;
    planner = None;
  }

type job = {
  id : int;
  request : Api.request;
  n_procs : int;  (* resolved share size *)
  name : string;
  strategy : string;
  arrival : float;
}

type stats = {
  submitted : int;
  admitted : int;
  rejected : int;
  completed : int;
  expired : int;
  queue_depth_max : int;
  busy_time : float;
  end_time : float;
  utilization : float;
  sojourns : float array;
  tenants : Report.per_tenant list;
}

(* One tenant's share of the run: every count [stats] reports is a sum
   over these, so the totals and the per-tenant rows cannot disagree. *)
type ledger = {
  tenant : string;
  mutable outstanding : int;  (* queued + running *)
  mutable submitted : int;
  mutable rejected : int;
  mutable completed : int;
  mutable expired : int;
  mutable rev_sojourns : float list;
}

type t = {
  config : config;
  sim : Sim.t;
  journal : Journal.t option;
  mutable free : Procset.t;
  queue : job Jobq.t;
  ledgers : (string, ledger) Hashtbl.t;
  mutable rev_ledgers : ledger list;  (* first arrival last *)
  mutable pending : (float * job) list;  (* submitted, not yet injected *)
  mutable next_id : int;
  mutable next_seq : int;
  mutable rev_events : Api.stamped list;
  mutable subscribers : (Api.stamped -> unit) list;
  (* statistics *)
  mutable queue_depth_max : int;
  mutable busy_time : float;
  mutable end_time : float;
}

let create ?journal config =
  {
    config;
    sim = Sim.create config.cluster;
    journal;
    free = Procset.range 0 (Cluster.n_procs config.cluster);
    queue = Jobq.create ();
    ledgers = Hashtbl.create 16;
    rev_ledgers = [];
    pending = [];
    next_id = 0;
    next_seq = 0;
    rev_events = [];
    subscribers = [];
    queue_depth_max = 0;
    busy_time = 0.;
    end_time = 0.;
  }

let cluster t = t.config.cluster
let now t = Sim.now t.sim
let free_procs t = Procset.size t.free
let queue_depth t = Jobq.depth t.queue

let subscribe t f = t.subscribers <- t.subscribers @ [ f ]
let events t = List.rev t.rev_events

(* A tenant's ledger is opened at its first arrival. *)
let ledger t tenant =
  match Hashtbl.find_opt t.ledgers tenant with
  | Some l -> l
  | None ->
      let l =
        {
          tenant;
          outstanding = 0;
          submitted = 0;
          rejected = 0;
          completed = 0;
          expired = 0;
          rev_sojourns = [];
        }
      in
      Hashtbl.add t.ledgers tenant l;
      t.rev_ledgers <- l :: t.rev_ledgers;
      l

let emit t job event =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let stamped =
    {
      Api.t = Sim.now t.sim;
      seq;
      job_id = job.id;
      tenant = job.request.Api.tenant;
      job_name = job.name;
      event;
    }
  in
  t.rev_events <- stamped :: t.rev_events;
  List.iter (fun f -> f stamped) t.subscribers

let note_queue_depth t =
  let d = Jobq.depth t.queue in
  if d > t.queue_depth_max then t.queue_depth_max <- d;
  Metrics.set Instr.server_queue_depth (float_of_int d);
  Metrics.observe_max Instr.server_queue_depth_max (float_of_int d)

(* --- dispatch ----------------------------------------------------------- *)

let rec start_job t job grant schedule =
  emit t job
    (Api.Started
       {
         procs = Procset.to_list grant;
         est_makespan = Schedule.makespan_estimated schedule;
       });
  let start_time = Sim.now t.sim in
  Evaluate.start t.sim ~grant
    ~on_task_finish:(fun task ->
      (* Wall-clock stall only: simulated time (and thus the event log) is
         untouched, which is what makes delay faults byte-identity-safe. *)
      Fault.delay_point t.config.fault ~site:"replay.task"
        ~key:(Printf.sprintf "%d:%d" job.id task))
    ~on_redistribution:(fun s ->
      emit t job
        (Api.Redistribution
           {
             src_task = s.Evaluate.src_task;
             dst_task = s.dst_task;
             bytes = s.span_bytes;
             started = s.span_start;
           }))
    ~on_complete:(fun (r : Evaluate.result) ->
      let finish_time = Sim.now t.sim in
      t.free <- Procset.union t.free grant;
      let l = ledger t job.request.Api.tenant in
      l.outstanding <- l.outstanding - 1;
      l.completed <- l.completed + 1;
      Metrics.incr Instr.server_jobs_completed;
      let sojourn = finish_time -. job.arrival in
      l.rev_sojourns <- sojourn :: l.rev_sojourns;
      t.busy_time <- t.busy_time +. (float_of_int job.n_procs *. r.makespan);
      Metrics.observe Instr.server_sojourn_seconds sojourn;
      emit t job
        (Api.Completed
           {
             makespan = r.makespan;
             sojourn;
             waited = start_time -. job.arrival;
             remote_bytes = r.remote_bytes;
             redistributions = r.redistributions;
             avoided = r.avoided;
           });
      dispatch t)
    schedule

and dispatch t =
  (* Pop everything that fits right now, granting the lowest free
     processors in queue order, then compute the batch's schedules in the
     pool (deterministic by index) and start the replays in grant order. *)
  let rec take acc =
    match Jobq.pop t.queue ~fits:(fun j -> j.n_procs <= Procset.size t.free) with
    | None -> List.rev acc
    | Some job ->
        let grant = Procset.first_n t.free job.n_procs in
        t.free <- Procset.diff t.free grant;
        take ((job, grant) :: acc)
  in
  let batch = take [] in
  if batch <> [] then begin
    (* Wall-clock stall before the batch's schedules are computed;
       simulated time and the event log are unaffected. *)
    Fault.delay_point t.config.fault ~site:"engine.step"
      ~key:(string_of_int t.next_seq);
    note_queue_depth t;
    let t0 = t.config.clock () in
    let schedules =
      Pool.map ?jobs:t.config.jobs
        (fun (job, grant) ->
          let share = Api.subcluster t.config.cluster (Procset.size grant) in
          match t.config.planner with
          | Some plan -> plan ~cluster:share job.request
          | None -> Api.plan ~cluster:share job.request)
        batch
    in
    Metrics.observe Instr.server_schedule_seconds (t.config.clock () -. t0);
    List.iter2
      (fun (job, grant) schedule -> start_job t job grant schedule)
      batch schedules
  end

and expire t id =
  (* Only fires if the job is still waiting: a started (or already
     expired) job is no longer in the queue and the timer is a no-op. *)
  match Jobq.remove t.queue ~f:(fun j -> j.id = id) with
  | None -> ()
  | Some job ->
      let l = ledger t job.request.Api.tenant in
      l.outstanding <- l.outstanding - 1;
      l.expired <- l.expired + 1;
      Metrics.incr Instr.server_jobs_expired;
      emit t job (Api.Expired { waited = Sim.now t.sim -. job.arrival });
      note_queue_depth t;
      (* Dropping a queued job can unblock a younger same-tenant job the
         FIFO lockout was holding back. *)
      dispatch t

(* --- arrivals ----------------------------------------------------------- *)

let arrive t job =
  let l = ledger t job.request.Api.tenant in
  l.submitted <- l.submitted + 1;
  Metrics.incr Instr.server_jobs_submitted;
  emit t job
    (Api.Submitted
       { procs = job.n_procs; strategy = job.strategy; spec = job.name });
  match
    Admission.decide t.config.policy ~queue_depth:(Jobq.depth t.queue)
      ~tenant_outstanding:l.outstanding
  with
  | Admission.Reject reason ->
      l.rejected <- l.rejected + 1;
      Metrics.incr Instr.server_jobs_rejected;
      emit t job (Api.Rejected { reason })
  | Admission.Accept ->
      Metrics.incr Instr.server_jobs_admitted;
      l.outstanding <- l.outstanding + 1;
      emit t job Api.Admitted;
      Jobq.push t.queue ~tenant:job.request.Api.tenant job;
      emit t job (Api.Queued { depth = Jobq.depth t.queue });
      note_queue_depth t;
      (match t.config.policy.Admission.deadline_s with
      | Some d ->
          let id = job.id in
          Sim.at t.sim (Sim.now t.sim +. d) (fun _eng -> expire t id)
      | None -> ());
      dispatch t

(* --- submission --------------------------------------------------------- *)

let journal_key id = Printf.sprintf "sub-%08d" id

let register t ~at ~id request ~n_procs =
  let job =
    {
      id;
      request;
      n_procs;
      name = Api.spec_name request.Api.job;
      strategy = Rats.strategy_name request.Api.strategy;
      arrival = at;
    }
  in
  t.pending <- (at, job) :: t.pending

let submit t ?at request =
  match Api.validate ~n_procs:(Cluster.n_procs t.config.cluster) request with
  | Error _ as e -> e
  | Ok n_procs ->
      let now = Sim.now t.sim in
      let at =
        match at with Some a when a > now -> a | Some _ | None -> now
      in
      let id = t.next_id in
      t.next_id <- id + 1;
      (match t.journal with
      | Some j ->
          Journal.append j ~key:(journal_key id)
            (J.to_string (Api.submission_to_json ~at request))
      | None -> ());
      register t ~at ~id request ~n_procs;
      Ok id

let resume t =
  match t.journal with
  | None -> Ok 0
  | Some j ->
      let rec go id =
        match Journal.find j (journal_key id) with
        | None -> Ok id
        | Some payload -> (
            match Result.bind (J.parse payload) Api.submission_of_json with
            | Error e ->
                Error
                  (Printf.sprintf "journal record %s is unreadable: %s"
                     (journal_key id) e)
            | Ok (at, request) -> (
                match
                  Api.validate ~n_procs:(Cluster.n_procs t.config.cluster)
                    request
                with
                | Error e ->
                    Error
                      (Printf.sprintf "journal record %s no longer valid: %s"
                         (journal_key id) e)
                | Ok n_procs ->
                    register t ~at ~id request ~n_procs;
                    t.next_id <- id + 1;
                    go (id + 1)))
      in
      go 0

(* --- running ------------------------------------------------------------ *)

let drain t =
  let pending =
    List.sort
      (fun (a1, j1) (a2, j2) ->
        compare (a1, j1.request.Api.tenant, j1.id) (a2, j2.request.Api.tenant, j2.id))
      t.pending
  in
  t.pending <- [];
  List.iter
    (fun (at, job) -> Sim.at t.sim at (fun _eng -> arrive t job))
    pending;
  let end_time = Sim.run t.sim in
  t.end_time <- end_time;
  end_time

let stats t =
  let ledgers = List.rev t.rev_ledgers in
  let sum f = List.fold_left (fun acc l -> acc + f l) 0 ledgers in
  let tenants =
    List.map
      (fun l ->
        {
          Report.tenant = l.tenant;
          submitted = l.submitted;
          completed = l.completed;
          rejected = l.rejected;
          expired = l.expired;
          sojourns = Array.of_list (List.rev l.rev_sojourns);
        })
      ledgers
  in
  let n_procs = Cluster.n_procs t.config.cluster in
  {
    submitted = sum (fun l -> l.submitted);
    (* Every admitted job is still outstanding, completed or expired. *)
    admitted = sum (fun l -> l.outstanding + l.completed + l.expired);
    rejected = sum (fun l -> l.rejected);
    completed = sum (fun l -> l.completed);
    expired = sum (fun l -> l.expired);
    queue_depth_max = t.queue_depth_max;
    busy_time = t.busy_time;
    end_time = t.end_time;
    utilization =
      (if t.end_time > 0. then
         t.busy_time /. (float_of_int n_procs *. t.end_time)
       else 0.);
    sojourns = Array.concat (List.map (fun pt -> pt.Report.sojourns) tenants);
    tenants;
  }
