module Rng = Rats_util.Rng
module Suite = Rats_daggen.Suite
module Shape = Rats_daggen.Shape
module Rats = Rats_core.Rats
module J = Rats_obs.Json
module Metrics = Rats_obs.Metrics
module Instr = Rats_obs.Instr

type job = {
  at : float;
  tenant : string;
  app : App.t;
  procs : int;
  strategy : Rats.strategy;
}

type t = job array

(* --- compiler ----------------------------------------------------------- *)

let tenant_jobs ~seed ~tenant_index ~n_jobs (tenant : Tenant.t) =
  (* Per-tenant stream: adding tenants never perturbs existing ones. The
     per-job draw order (arrival, template, sample, share) is frozen — the
     poisson preset's byte-identity with the historical load generator
     depends on it. *)
  let rng = Rng.create (seed + (7919 * tenant_index)) in
  let state = ref (Arrival.start tenant.Tenant.arrival) in
  Array.init n_jobs (fun _ ->
      let state', at = Arrival.next tenant.Tenant.arrival !state rng in
      state := state';
      let app =
        match App.pick tenant.Tenant.mix rng with
        | App.Suite_spec spec ->
            let sample = Rng.int_range rng 0 (tenant.Tenant.samples - 1) in
            App.Generated { Suite.spec; sample }
        | App.Pipeline p -> App.Chain p
      in
      let procs =
        match tenant.Tenant.share with
        | Tenant.Fixed k -> k
        | Tenant.Uniform { lo; hi } -> Rng.int_range rng lo hi
      in
      { at; tenant = tenant.Tenant.name; app; procs; strategy = tenant.strategy })

let compile (p : Profile.t) =
  Profile.validate p;
  let split = Profile.jobs_per_tenant p in
  let per_tenant =
    List.mapi
      (fun i tenant -> tenant_jobs ~seed:p.Profile.seed ~tenant_index:i ~n_jobs:split.(i) tenant)
      p.Profile.tenants
  in
  let jobs = Array.concat per_tenant in
  Array.sort
    (fun j1 j2 -> compare (j1.at, j1.tenant) (j2.at, j2.tenant))
    jobs;
  Metrics.incr Instr.workload_traces;
  Metrics.add Instr.workload_jobs (Array.length jobs);
  jobs

let equal (a : t) (b : t) = a = b

(* --- JSON-lines codec ---------------------------------------------------- *)

let num x = J.Num x
let int n = J.Num (float_of_int n)
let ( let* ) = Result.bind

let strategy_to_json = function
  | Rats.Baseline -> J.Obj [ ("algo", J.Str "hcpa") ]
  | Rats.Delta { mindelta; maxdelta } ->
      J.Obj
        [
          ("algo", J.Str "delta");
          ("mindelta", num mindelta);
          ("maxdelta", num maxdelta);
        ]
  | Rats.Timecost { minrho; packing } ->
      J.Obj
        [
          ("algo", J.Str "timecost");
          ("minrho", num minrho);
          ("packing", J.Bool packing);
        ]

let strategy_of_json j =
  let* algo = J.str_field "algo" j in
  match algo with
  | "hcpa" -> Ok Rats.Baseline
  | "delta" ->
      let* mindelta = J.num_field "mindelta" j in
      let* maxdelta = J.num_field "maxdelta" j in
      Ok (Rats.Delta { mindelta; maxdelta })
  | "timecost" ->
      let* minrho = J.num_field "minrho" j in
      let* packing = J.bool_field "packing" j in
      Ok (Rats.Timecost { minrho; packing })
  | other -> Error (Printf.sprintf "unknown algo %S" other)

let app_to_json = function
  | App.Generated { Suite.spec; sample } -> (
      match spec with
      | Suite.Layered { n_tasks; shape } ->
          J.Obj
            [
              ("kind", J.Str "layered");
              ("n_tasks", int n_tasks);
              ("width", num shape.Shape.width);
              ("regularity", num shape.Shape.regularity);
              ("density", num shape.Shape.density);
              ("sample", int sample);
            ]
      | Suite.Irregular { n_tasks; shape } ->
          J.Obj
            [
              ("kind", J.Str "irregular");
              ("n_tasks", int n_tasks);
              ("width", num shape.Shape.width);
              ("regularity", num shape.Shape.regularity);
              ("density", num shape.Shape.density);
              ("jump", int shape.Shape.jump);
              ("sample", int sample);
            ]
      | Suite.Fft { k } ->
          J.Obj [ ("kind", J.Str "fft"); ("k", int k); ("sample", int sample) ]
      | Suite.Strassen ->
          J.Obj [ ("kind", J.Str "strassen"); ("sample", int sample) ])
  | App.Chain p ->
      J.Obj
        [
          ("kind", J.Str "pipeline");
          ("stages", int p.App.stages);
          ("data_elements", num p.App.data_elements);
          ("flop", num p.App.flop);
          ("alpha", num p.App.alpha);
        ]

let shape_of_json ?jump j =
  let* width = J.num_field "width" j in
  let* regularity = J.num_field "regularity" j in
  let* density = J.num_field "density" j in
  match Shape.make ~width ~regularity ~density ?jump () with
  | s -> Ok s
  | exception Invalid_argument msg -> Error msg

let app_of_json j =
  let* kind = J.str_field "kind" j in
  let generated spec =
    let* sample = J.int_field "sample" j in
    Ok (App.Generated { Suite.spec; sample })
  in
  match kind with
  | "layered" ->
      let* n_tasks = J.int_field "n_tasks" j in
      let* shape = shape_of_json j in
      generated (Suite.Layered { n_tasks; shape })
  | "irregular" ->
      let* n_tasks = J.int_field "n_tasks" j in
      let* jump = J.int_field "jump" j in
      let* shape = shape_of_json ~jump j in
      generated (Suite.Irregular { n_tasks; shape })
  | "fft" ->
      let* k = J.int_field "k" j in
      generated (Suite.Fft { k })
  | "strassen" -> generated Suite.Strassen
  | "pipeline" ->
      let* stages = J.int_field "stages" j in
      let* data_elements = J.num_field "data_elements" j in
      let* flop = J.num_field "flop" j in
      let* alpha = J.num_field "alpha" j in
      Ok (App.Chain { App.stages; data_elements; flop; alpha })
  | other -> Error (Printf.sprintf "unknown app kind %S" other)

let job_to_json job =
  J.Obj
    [
      ("at", num job.at);
      ("tenant", J.Str job.tenant);
      ("app", app_to_json job.app);
      ("procs", int job.procs);
      ("strategy", strategy_to_json job.strategy);
    ]

let job_of_json j =
  let* at = J.num_field "at" j in
  let* tenant = J.str_field "tenant" j in
  let* app = Result.bind (J.field "app" j) app_of_json in
  let* procs = J.int_field "procs" j in
  let* strategy = Result.bind (J.field "strategy" j) strategy_of_json in
  Ok { at; tenant; app; procs; strategy }

let save path trace =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Array.iter
        (fun job ->
          output_string oc (J.to_string (job_to_json job));
          output_char oc '\n')
        trace)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok (Array.of_list (List.rev acc))
        | "" -> go (lineno + 1) acc
        | line -> (
            let parsed =
              let* j = J.parse line in
              job_of_json j
            in
            match parsed with
            | Ok job -> go (lineno + 1) (job :: acc)
            | Error e ->
                Error (Printf.sprintf "%s:%d: %s" path lineno e))
      in
      go 1 [])
