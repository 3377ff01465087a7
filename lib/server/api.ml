module Suite = Rats_daggen.Suite
module Shape = Rats_daggen.Shape
module Cluster = Rats_platform.Cluster
module Topology = Rats_platform.Topology
module Dag = Rats_dag.Dag
module Task = Rats_dag.Task
module Core = Rats_core
module Procset = Rats_util.Procset
module J = Rats_obs.Json

type task_def = { data_elements : float; flop : float; alpha : float }
type edge_def = { src : int; dst : int; bytes : float }

type job_spec =
  | Generated of Suite.config
  | Inline of { name : string; tasks : task_def array; edges : edge_def list }

let spec_name = function
  | Generated c -> Suite.name c
  | Inline { name; _ } -> name

let dag_of_spec = function
  | Generated c -> Suite.generate c
  | Inline { tasks; edges; _ } ->
      if Array.length tasks = 0 then
        invalid_arg "Api.dag_of_spec: inline DAG has no tasks";
      let b = Dag.Builder.create () in
      Array.iteri
        (fun id t ->
          Dag.Builder.add_task b
            (Task.make ~id
               ~name:(Printf.sprintf "t%d" id)
               ~data_elements:t.data_elements ~flop:t.flop ~alpha:t.alpha))
        tasks;
      List.iter
        (fun e -> Dag.Builder.add_edge b ~src:e.src ~dst:e.dst ~bytes:e.bytes)
        edges;
      Dag.ensure_single_entry_exit (Dag.Builder.build b)

type request = {
  tenant : string;
  job : job_spec;
  strategy : Core.Rats.strategy;
  procs : int;
}

let resolve_procs ~n_procs procs =
  if procs = 0 then Ok n_procs
  else if procs < 0 then Error "procs must be non-negative"
  else if procs > n_procs then
    Error
      (Printf.sprintf "requested %d processors but the platform has %d" procs
         n_procs)
  else Ok procs

(* [validate], also returning the DAG it built for the caller to schedule. *)
let validated ~n_procs r =
  if r.tenant = "" then Error "empty tenant id"
  else
    match resolve_procs ~n_procs r.procs with
    | Error e -> Error e
    | Ok k -> (
        match Core.Rats.check_strategy r.strategy with
        | Error e -> Error e
        | Ok () -> (
            match dag_of_spec r.job with
            | dag -> Ok (k, dag)
            | exception (Invalid_argument msg | Failure msg) ->
                Error ("malformed DAG: " ^ msg)))

let validate ~n_procs r = Result.map fst (validated ~n_procs r)

(* --- scheduling --------------------------------------------------------- *)

let subcluster c k =
  if k = Cluster.n_procs c then c
  else
    Cluster.make
      ~name:(Printf.sprintf "%s#%d" c.Cluster.name k)
      ~topology:(Topology.Flat k)
      ~speed_gflops:(c.Cluster.speed /. Rats_util.Units.gflops 1.)
      ~node_link:c.Cluster.node_link ~uplink:c.Cluster.uplink
      ~tcp_wmax:c.Cluster.tcp_wmax ()

type placement = {
  task : int;
  procs : int list;
  est_start : float;
  est_finish : float;
}

type response = {
  job_name : string;
  strategy : string;
  n_procs : int;
  est_makespan : float;
  total_work : float;
  placements : placement array;
}

(* HCPA allocation, then the strategy's mapping. *)
let schedule_dag ~cluster dag strategy =
  Core.Rats.schedule (Core.Problem.make ~dag ~cluster) strategy

let plan ~cluster r = schedule_dag ~cluster (dag_of_spec r.job) r.strategy

let response_of_schedule ~job_name ~strategy schedule =
  let placements =
    Array.map
      (fun e ->
        {
          task = e.Core.Schedule.task;
          procs = Procset.to_list e.Core.Schedule.procs;
          est_start = e.Core.Schedule.est_start;
          est_finish = e.Core.Schedule.est_finish;
        })
      (Core.Schedule.entries schedule)
  in
  {
    job_name;
    strategy;
    n_procs = Core.Problem.n_procs (Core.Schedule.problem schedule);
    est_makespan = Core.Schedule.makespan_estimated schedule;
    total_work = Core.Schedule.total_work schedule;
    placements;
  }

let place ~cluster r =
  match validated ~n_procs:(Cluster.n_procs cluster) r with
  | Error e -> Error e
  | Ok (k, dag) ->
      let schedule = schedule_dag ~cluster:(subcluster cluster k) dag r.strategy in
      Ok
        (response_of_schedule ~job_name:(spec_name r.job)
           ~strategy:(Core.Rats.strategy_name r.strategy)
           schedule)

(* --- events ------------------------------------------------------------- *)

type reject_reason =
  | Queue_full
  | Tenant_quota
  | Overloaded of { retry_after : float }

let reject_reason_name = function
  | Queue_full -> "queue_full"
  | Tenant_quota -> "tenant_quota"
  | Overloaded _ -> "overloaded"

type event =
  | Submitted of { procs : int; strategy : string; spec : string }
  | Admitted
  | Queued of { depth : int }
  | Started of { procs : int list; est_makespan : float }
  | Redistribution of {
      src_task : int;
      dst_task : int;
      bytes : float;
      started : float;
    }
  | Completed of {
      makespan : float;
      sojourn : float;
      waited : float;
      remote_bytes : float;
      redistributions : int;
      avoided : int;
    }
  | Rejected of { reason : reject_reason }
  | Expired of { waited : float }

type stamped = {
  t : float;
  seq : int;
  job_id : int;
  tenant : string;
  job_name : string;
  event : event;
}

(* --- JSON helpers ------------------------------------------------------- *)

let num x = J.Num x
let int n = J.Num (float_of_int n)

let ( let* ) = Result.bind

(* --- job spec codec ----------------------------------------------------- *)

let shape_fields (s : Shape.t) =
  [
    ("width", num s.Shape.width);
    ("density", num s.Shape.density);
    ("regularity", num s.Shape.regularity);
    ("jump", int s.Shape.jump);
  ]

let shape_of_json j =
  let* width = J.num_field "width" j in
  let* density = J.num_field "density" j in
  let* regularity = J.num_field "regularity" j in
  let* jump = J.int_field "jump" j in
  match Shape.make ~width ~regularity ~density ~jump () with
  | s -> Ok s
  | exception Invalid_argument msg -> Error msg

let job_spec_to_json = function
  | Generated { spec = Suite.Layered { n_tasks; shape }; sample } ->
      J.Obj
        (("kind", J.Str "layered") :: ("n", int n_tasks)
        :: shape_fields shape
        @ [ ("sample", int sample) ])
  | Generated { spec = Suite.Irregular { n_tasks; shape }; sample } ->
      J.Obj
        (("kind", J.Str "irregular") :: ("n", int n_tasks)
        :: shape_fields shape
        @ [ ("sample", int sample) ])
  | Generated { spec = Suite.Fft { k }; sample } ->
      J.Obj [ ("kind", J.Str "fft"); ("k", int k); ("sample", int sample) ]
  | Generated { spec = Suite.Strassen; sample } ->
      J.Obj [ ("kind", J.Str "strassen"); ("sample", int sample) ]
  | Inline { name; tasks; edges } ->
      J.Obj
        [
          ("kind", J.Str "inline");
          ("name", J.Str name);
          ( "tasks",
            J.Arr
              (Array.to_list
                 (Array.map
                    (fun t ->
                      J.Obj
                        [
                          ("data", num t.data_elements);
                          ("flop", num t.flop);
                          ("alpha", num t.alpha);
                        ])
                    tasks)) );
          ( "edges",
            J.Arr
              (List.map
                 (fun e -> J.Arr [ int e.src; int e.dst; num e.bytes ])
                 edges) );
        ]

let job_spec_of_json j =
  let* kind = J.str_field "kind" j in
  match kind with
  | "layered" | "irregular" ->
      let* n_tasks = J.int_field "n" j in
      let* shape = shape_of_json j in
      let* sample = J.int_field "sample" j in
      let spec =
        if kind = "layered" then Suite.Layered { n_tasks; shape }
        else Suite.Irregular { n_tasks; shape }
      in
      Ok (Generated { Suite.spec; sample })
  | "fft" ->
      let* k = J.int_field "k" j in
      let* sample = J.int_field "sample" j in
      Ok (Generated { Suite.spec = Suite.Fft { k }; sample })
  | "strassen" ->
      let* sample = J.int_field "sample" j in
      Ok (Generated { Suite.spec = Suite.Strassen; sample })
  | "inline" ->
      let* name = J.str_field "name" j in
      let* tasks = J.list_field "tasks" j in
      let* edges = J.list_field "edges" j in
      let* tasks =
        List.fold_left
          (fun acc tj ->
            let* acc = acc in
            let* data_elements = J.num_field "data" tj in
            let* flop = J.num_field "flop" tj in
            let* alpha = J.num_field "alpha" tj in
            Ok ({ data_elements; flop; alpha } :: acc))
          (Ok []) tasks
      in
      let* edges =
        List.fold_left
          (fun acc ej ->
            let* acc = acc in
            match J.to_list ej with
            | Some [ s; d; b ] -> (
                match (J.to_int s, J.to_int d, J.to_float b) with
                | Some src, Some dst, Some bytes ->
                    Ok ({ src; dst; bytes } :: acc)
                | _ -> Error "edge entries must be [src, dst, bytes]")
            | _ -> Error "edge entries must be [src, dst, bytes]")
          (Ok []) edges
      in
      Ok
        (Inline
           {
             name;
             tasks = Array.of_list (List.rev tasks);
             edges = List.rev edges;
           })
  | other -> Error (Printf.sprintf "unknown job kind %S" other)

(* --- strategy codec ------------------------------------------------------ *)

let strategy_to_json = function
  | Core.Rats.Baseline -> J.Obj [ ("algo", J.Str "hcpa") ]
  | Core.Rats.Delta { mindelta; maxdelta } ->
      J.Obj
        [
          ("algo", J.Str "delta");
          ("mindelta", num mindelta);
          ("maxdelta", num maxdelta);
        ]
  | Core.Rats.Timecost { minrho; packing } ->
      J.Obj
        [
          ("algo", J.Str "timecost");
          ("minrho", num minrho);
          ("packing", J.Bool packing);
        ]

let strategy_of_json j =
  let* algo = J.str_field "algo" j in
  match algo with
  | "hcpa" -> Ok Core.Rats.Baseline
  | "delta" ->
      let* mindelta = J.num_field "mindelta" j in
      let* maxdelta = J.num_field "maxdelta" j in
      Ok (Core.Rats.Delta { mindelta; maxdelta })
  | "timecost" ->
      let* minrho = J.num_field "minrho" j in
      let* packing = J.bool_field "packing" j in
      Ok (Core.Rats.Timecost { minrho; packing })
  | other -> Error (Printf.sprintf "unknown algo %S" other)

(* --- request / submission / response codecs ----------------------------- *)

let request_to_json (r : request) =
  J.Obj
    [
      ("tenant", J.Str r.tenant);
      ("job", job_spec_to_json r.job);
      ("strategy", strategy_to_json r.strategy);
      ("procs", int r.procs);
    ]

let request_of_json j =
  let* tenant = J.str_field "tenant" j in
  let* job = Result.bind (J.field "job" j) job_spec_of_json in
  let* strategy = Result.bind (J.field "strategy" j) strategy_of_json in
  let* procs = J.int_field "procs" j in
  Ok { tenant; job; strategy; procs }

let submission_to_json ~at r =
  J.Obj [ ("at", num at); ("req", request_to_json r) ]

let submission_of_json j =
  let* at = J.num_field "at" j in
  let* request = Result.bind (J.field "req" j) request_of_json in
  Ok (at, request)

let response_to_json (r : response) =
  J.Obj
    [
      ("job_name", J.Str r.job_name);
      ("strategy", J.Str r.strategy);
      ("n_procs", int r.n_procs);
      ("est_makespan", num r.est_makespan);
      ("total_work", num r.total_work);
      ( "placements",
        J.Arr
          (Array.to_list
             (Array.map
                (fun p ->
                  J.Obj
                    [
                      ("task", int p.task);
                      ("procs", J.Arr (List.map int p.procs));
                      ("est_start", num p.est_start);
                      ("est_finish", num p.est_finish);
                    ])
                r.placements)) );
    ]

(* --- event codec -------------------------------------------------------- *)

let event_fields = function
  | Submitted { procs; strategy; spec } ->
      [
        ("ev", J.Str "submitted");
        ("procs", int procs);
        ("strategy", J.Str strategy);
        ("spec", J.Str spec);
      ]
  | Admitted -> [ ("ev", J.Str "admitted") ]
  | Queued { depth } -> [ ("ev", J.Str "queued"); ("depth", int depth) ]
  | Started { procs; est_makespan } ->
      [
        ("ev", J.Str "started");
        ("procs", J.Arr (List.map int procs));
        ("est_makespan", num est_makespan);
      ]
  | Redistribution { src_task; dst_task; bytes; started } ->
      [
        ("ev", J.Str "redistribution");
        ("src", int src_task);
        ("dst", int dst_task);
        ("bytes", num bytes);
        ("started", num started);
      ]
  | Completed { makespan; sojourn; waited; remote_bytes; redistributions;
                avoided } ->
      [
        ("ev", J.Str "completed");
        ("makespan", num makespan);
        ("sojourn", num sojourn);
        ("waited", num waited);
        ("remote_bytes", num remote_bytes);
        ("redistributions", int redistributions);
        ("avoided", int avoided);
      ]
  | Rejected { reason } ->
      ("ev", J.Str "rejected")
      :: ("reason", J.Str (reject_reason_name reason))
      :: (match reason with
         | Overloaded { retry_after } -> [ ("retry_after", num retry_after) ]
         | Queue_full | Tenant_quota -> [])
  | Expired { waited } -> [ ("ev", J.Str "expired"); ("waited", num waited) ]

let event_of_json j =
  let* ev = J.str_field "ev" j in
  match ev with
  | "submitted" ->
      let* procs = J.int_field "procs" j in
      let* strategy = J.str_field "strategy" j in
      let* spec = J.str_field "spec" j in
      Ok (Submitted { procs; strategy; spec })
  | "admitted" -> Ok Admitted
  | "queued" ->
      let* depth = J.int_field "depth" j in
      Ok (Queued { depth })
  | "started" ->
      let* procs = J.list_field "procs" j in
      let* procs =
        List.fold_left
          (fun acc p ->
            let* acc = acc in
            match J.to_int p with
            | Some p -> Ok (p :: acc)
            | None -> Error "proc ids must be integers")
          (Ok []) procs
      in
      let* est_makespan = J.num_field "est_makespan" j in
      Ok (Started { procs = List.rev procs; est_makespan })
  | "redistribution" ->
      let* src_task = J.int_field "src" j in
      let* dst_task = J.int_field "dst" j in
      let* bytes = J.num_field "bytes" j in
      let* started = J.num_field "started" j in
      Ok (Redistribution { src_task; dst_task; bytes; started })
  | "completed" ->
      let* makespan = J.num_field "makespan" j in
      let* sojourn = J.num_field "sojourn" j in
      let* waited = J.num_field "waited" j in
      let* remote_bytes = J.num_field "remote_bytes" j in
      let* redistributions = J.int_field "redistributions" j in
      let* avoided = J.int_field "avoided" j in
      Ok
        (Completed
           { makespan; sojourn; waited; remote_bytes; redistributions; avoided })
  | "rejected" -> (
      let* reason = J.str_field "reason" j in
      match reason with
      | "queue_full" -> Ok (Rejected { reason = Queue_full })
      | "tenant_quota" -> Ok (Rejected { reason = Tenant_quota })
      | "overloaded" ->
          let* retry_after = J.num_field "retry_after" j in
          Ok (Rejected { reason = Overloaded { retry_after } })
      | other -> Error (Printf.sprintf "unknown reject reason %S" other))
  | "expired" ->
      let* waited = J.num_field "waited" j in
      Ok (Expired { waited })
  | other -> Error (Printf.sprintf "unknown event %S" other)

let stamped_to_json s =
  J.Obj
    ([
       ("t", num s.t);
       ("seq", int s.seq);
       ("job", int s.job_id);
       ("tenant", J.Str s.tenant);
       ("name", J.Str s.job_name);
     ]
    @ event_fields s.event)

let stamped_of_json j =
  let* t = J.num_field "t" j in
  let* seq = J.int_field "seq" j in
  let* job_id = J.int_field "job" j in
  let* tenant = J.str_field "tenant" j in
  let* job_name = J.str_field "name" j in
  let* event = event_of_json j in
  Ok { t; seq; job_id; tenant; job_name; event }

let pp_stamped ppf s =
  let pp_event ppf = function
    | Submitted { procs; strategy; spec } ->
        Format.fprintf ppf "submitted %s on %d procs (%s)" spec procs strategy
    | Admitted -> Format.pp_print_string ppf "admitted"
    | Queued { depth } -> Format.fprintf ppf "queued (depth %d)" depth
    | Started { procs; est_makespan } ->
        Format.fprintf ppf "started on %d procs (est makespan %.2fs)"
          (List.length procs) est_makespan
    | Redistribution { src_task; dst_task; bytes; started } ->
        Format.fprintf ppf "redistribution %d->%d %a (started %.2fs)" src_task
          dst_task Rats_util.Units.pp_bytes bytes started
    | Completed { makespan; sojourn; waited; _ } ->
        Format.fprintf ppf
          "completed: makespan %.2fs, sojourn %.2fs (waited %.2fs)" makespan
          sojourn waited
    | Rejected { reason = Overloaded { retry_after } } ->
        Format.fprintf ppf "rejected (overloaded, retry after %.2fs)"
          retry_after
    | Rejected { reason } ->
        Format.fprintf ppf "rejected (%s)" (reject_reason_name reason)
    | Expired { waited } ->
        Format.fprintf ppf "expired after waiting %.2fs in queue" waited
  in
  Format.fprintf ppf "[%10.2f] #%d %s/%s: %a" s.t s.job_id s.tenant s.job_name
    pp_event s.event
