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

(* Mutable per-tenant tally, filled from the event log. *)
type tally = {
  mutable submitted : int;
  mutable completed : int;
  mutable rejected : int;
  mutable expired : int;
  mutable rev_sojourns : float list;
}

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
  let events = Engine.events engine in
  let tallies =
    List.map
      (fun (t : Tenant.t) ->
        ( t.Tenant.name,
          {
            submitted = 0;
            completed = 0;
            rejected = 0;
            expired = 0;
            rev_sojourns = [];
          } ))
      profile.Profile.tenants
  in
  List.iter
    (fun (ev : Api.stamped) ->
      match List.assoc_opt ev.Api.tenant tallies with
      | None -> ()
      | Some tally -> (
          match ev.Api.event with
          | Api.Submitted _ -> tally.submitted <- tally.submitted + 1
          | Api.Completed { sojourn; _ } ->
              tally.completed <- tally.completed + 1;
              tally.rev_sojourns <- sojourn :: tally.rev_sojourns
          | Api.Rejected _ -> tally.rejected <- tally.rejected + 1
          | Api.Expired _ -> tally.expired <- tally.expired + 1
          | Api.Admitted | Api.Queued _ | Api.Started _
          | Api.Redistribution _ ->
              ()))
    events;
  let s = Engine.stats engine in
  Metrics.incr Instr.workload_arm_runs;
  ( Report.make ~profile:profile.Profile.name ~arm:(arm_name arm) ~end_time
      ~utilization:s.Engine.utilization
      ~queue_depth_max:s.Engine.queue_depth_max
      (List.map
         (fun (tenant, tally) ->
           {
             Report.tenant;
             submitted = tally.submitted;
             completed = tally.completed;
             rejected = tally.rejected;
             expired = tally.expired;
             sojourns = Array.of_list (List.rev tally.rev_sojourns);
           })
         tallies),
    events )

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
