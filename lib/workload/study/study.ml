module Profile = Rats_workload.Profile
module Tenant = Rats_workload.Tenant
module Trace = Rats_workload.Trace
module Report = Rats_workload.Report
module Rats = Rats_core.Rats
module Api = Rats_server.Api
module Engine = Rats_server.Engine
module Load = Rats_server.Load
module Metrics = Rats_obs.Metrics
module Instr = Rats_obs.Instr

type arm = Delta | Hcpa | Timecost | Packing

let arm_name = function
  | Delta -> "delta"
  | Hcpa -> "hcpa"
  | Timecost -> "time-cost"
  | Packing -> "packing"

let all_arms = [ Delta; Hcpa; Timecost; Packing ]
let default_arms = [ Delta; Hcpa; Packing ]

let arm_of_string s =
  match List.find_opt (fun a -> arm_name a = s) all_arms with
  | Some a -> Ok a
  | None ->
      Error
        (Printf.sprintf "unknown arm %S (expected one of: %s)" s
           (String.concat ", " (List.map arm_name all_arms)))

(* RATS arms submit every job with the arm's strategy and plan it with
   [Api.plan]; the packing arm keeps the trace's strategy and replaces the
   whole allocate-and-map pipeline through the engine's planner hook. *)
let strategy = function
  | Delta -> Some (Rats.Delta Rats.naive_delta)
  | Hcpa -> Some Rats.Baseline
  | Timecost -> Some (Rats.Timecost Rats.naive_timecost)
  | Packing -> None

(* The engine's ledger rows: the profile's tenants in profile order (one
   that never arrived reads zero), then the tenants the profile does not
   name, in first-arrival order. *)
let rows (profile : Profile.t) (ledger : Report.per_tenant list) =
  let named = List.map (fun (t : Tenant.t) -> t.Tenant.name) profile.tenants in
  let row tenant =
    match List.find_opt (fun pt -> pt.Report.tenant = tenant) ledger with
    | Some pt -> pt
    | None ->
        {
          Report.tenant;
          submitted = 0;
          completed = 0;
          rejected = 0;
          expired = 0;
          sojourns = [||];
        }
  in
  List.map row named
  @ List.filter (fun pt -> not (List.mem pt.Report.tenant named)) ledger

let run_arm config ~(profile : Profile.t) ~requests arm =
  let planner = if arm = Packing then Some Packing.plan else None in
  let engine = Engine.create { config with Engine.planner } in
  let request =
    match strategy arm with
    | Some strategy -> fun (r : Api.request) -> { r with Api.strategy }
    | None -> Fun.id
  in
  Array.iter
    (fun (at, r) ->
      match Engine.submit engine ~at (request r) with
      | Ok (_ : int) -> ()
      | Error e -> invalid_arg ("Study.run_arm: invalid request: " ^ e))
    requests;
  let end_time = Engine.drain engine in
  let s = Engine.stats engine in
  Metrics.incr Instr.workload_arm_runs;
  ( Report.make ~profile:profile.Profile.name ~arm:(arm_name arm) ~end_time
      ~utilization:s.Engine.utilization
      ~queue_depth_max:s.Engine.queue_depth_max
      (rows profile s.Engine.tenants),
    Engine.events engine )

let run ?(arms = default_arms) config profile =
  let requests = Load.requests (Trace.compile profile) in
  List.map (fun arm -> fst (run_arm config ~profile ~requests arm)) arms

let csv reports =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf Report.csv_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf (Report.csv_row r);
      Buffer.add_char buf '\n')
    reports;
  Buffer.contents buf

let write_csv path reports = Rats_obs.File.write_atomic path (csv reports)
