(* ratsd's [Plan] branch, closed loop, in-process: one client sends a
   framed plan request for an inline DAG and waits for the framed reply
   before sending the next. Each request goes through exactly the daemon's
   path: [Protocol.Decoder] -> [client_of_json] -> [Api.validate] ->
   [Api.subcluster] -> [Api.plan] -> [response_of_schedule] ->
   [response_to_json] -> [to_frame].

   A pass plans 36 inline DAGs, each with the hcpa, delta and time-cost
   strategies: three sizes times the paper's twelve width x density x
   regularity shapes, alternately layered and irregular. The DAGs are
   fixed; the seed only shuffles the request order. Drawing shapes from
   the seed moved a pass's cost 2x between seeds, and drawing only the
   instances still moved it 15-20%, more than a regression bound can
   absorb. Nothing is simulated, so allocation and mapping dominate and a
   simulator change must show no effect here. *)

module Suite = Rats_daggen.Suite
module Shape = Rats_daggen.Shape
module Cluster = Rats_platform.Cluster
module Dag = Rats_dag.Dag
module Task = Rats_dag.Task
module Api = Rats_server.Api
module Protocol = Rats_server.Protocol
module Json = Rats_obs.Json
module Core = Rats_core
module Rng = Rats_util.Rng

let cluster = Cluster.grelon
let sizes = [ 50; 100; 200 ]

let strategies =
  [
    Core.Rats.Baseline;
    Core.Rats.Delta Core.Rats.naive_delta;
    Core.Rats.Timecost Core.Rats.naive_timecost;
  ]

type request = { frame : string; n_tasks : int }
type inputs = { requests : request array }

(* The request's inline DAG and its task count. *)
let inline_spec config =
  let dag = Suite.generate config in
  ( Api.Inline
    {
      name = Suite.name config;
      tasks =
        Array.map
          (fun (t : Task.t) ->
            {
              Api.data_elements = t.Task.data_elements;
              flop = t.Task.flop;
              alpha = t.Task.alpha;
            })
          (Dag.tasks dag);
      edges =
        List.map
          (fun (e : Dag.edge) ->
            { Api.src = e.Dag.src; dst = e.Dag.dst; bytes = e.Dag.bytes })
          (Dag.edges dag);
    },
    Dag.n_tasks dag )

let configs =
  let shapes =
    List.concat_map
      (fun width ->
        List.concat_map
          (fun density ->
            List.map (fun regularity -> (width, density, regularity)) [ 0.2; 0.8 ])
          [ 0.2; 0.8 ])
      [ 0.2; 0.5; 0.8 ]
  in
  List.concat_map
    (fun n_tasks ->
      List.mapi
        (fun k (width, density, regularity) ->
          let shape jump = Shape.make ~width ~density ~regularity ~jump () in
          let spec =
            if k mod 2 = 0 then Suite.Layered { n_tasks; shape = shape 1 }
            else Suite.Irregular { n_tasks; shape = shape (List.nth [ 1; 2; 4 ] (k / 2 mod 3)) }
          in
          { Suite.spec; sample = 0 })
        shapes)
    sizes

let setup ~seed =
  let requests =
    List.concat_map
      (fun config ->
        let job, n_tasks = inline_spec config in
        List.map
          (fun strategy ->
            let r = { Api.tenant = "perf"; job; strategy; procs = 0 } in
            { frame = Protocol.to_frame (Protocol.client_to_json (Protocol.Plan r)); n_tasks })
          strategies)
      configs
    |> Array.of_list
  in
  Rng.shuffle (Rng.create seed) requests;
  { requests }

let ( let* ) = Result.bind

(* Feeds one whole frame to [decoder] and pops its document. *)
let read_frame decoder frame =
  Protocol.Decoder.feed decoder (Bytes.unsafe_of_string frame) 0 (String.length frame);
  match Protocol.Decoder.next decoder with
  | Ok (Some doc) -> Ok doc
  | Ok None -> Error "incomplete frame"
  | Error e -> Error e

(* One request through the daemon's [Plan] branch; an [Error] is what the
   daemon answers with [Err]. *)
let serve tracer decoder frame =
  let span name f = Layers.span tracer name f in
  let reply =
    let* r =
      span "protocol.decode" (fun () ->
          let* doc = read_frame decoder frame in
          match Protocol.client_of_json doc with
          | Ok (Protocol.Plan r) -> Ok r
          | Ok _ -> Error "not a plan request"
          | Error e -> Error e)
    in
    let* k =
      span "api.validate" (fun () -> Api.validate ~n_procs:(Cluster.n_procs cluster) r)
    in
    let share = span "api.validate" (fun () -> Api.subcluster cluster k) in
    let schedule =
      match tracer with
      | None -> Api.plan ~cluster:share r
      | Some _ -> Service.plan tracer ~cluster:share r
    in
    span "api.response" (fun () ->
        Ok
          (Api.response_to_json
             (Api.response_of_schedule ~job_name:(Api.spec_name r.Api.job)
                ~strategy:(Core.Rats.strategy_name r.Api.strategy)
                schedule)))
  in
  span "protocol.encode" (fun () ->
      Protocol.to_frame
        (Protocol.server_to_json
           (match reply with Ok resp -> Protocol.Placed resp | Error e -> Protocol.Err e)))

let member name conv j = Option.bind (Json.member name j) conv

(* The reply must be [Placed], place every task exactly once on a
   non-empty set of processors of the share, and never finish a task
   before it starts. Returns the estimated makespan. *)
let check_reply ~n_tasks frame =
  let* doc = read_frame (Protocol.Decoder.create ()) frame in
  let* reply = Protocol.server_of_json doc in
  let* resp =
    match reply with
    | Protocol.Placed resp -> Ok resp
    | Protocol.Err e -> Error ("Err reply: " ^ e)
    | _ -> Error "reply is not Placed"
  in
  match (member "n_procs" Json.to_int resp, member "placements" Json.to_list resp) with
  | Some p, Some placements ->
      let seen = Array.make n_tasks 0 in
      let valid pl =
        let procs = Option.map (List.filter_map Json.to_int) (member "procs" Json.to_list pl) in
        match
          ( member "task" Json.to_int pl,
            procs,
            member "est_start" Json.to_float pl,
            member "est_finish" Json.to_float pl )
        with
        | Some t, Some procs, Some start, Some finish
          when t >= 0 && t < n_tasks && procs <> []
               && List.for_all (fun q -> q >= 0 && q < p) procs
               && finish >= start ->
            seen.(t) <- seen.(t) + 1;
            true
        | _ -> false
      in
      if not (List.for_all valid placements) then Error "malformed placement"
      else if not (Array.for_all (fun c -> c = 1) seen) then
        Error "a task is not placed exactly once"
      else Ok (Option.value (member "est_makespan" Json.to_float resp) ~default:nan)
  | _ -> Error "reply without n_procs/placements"

let pass inputs ~scratch:_ ~tracer =
  let n = Array.length inputs.requests in
  let decoder = Protocol.Decoder.create () in
  let latencies = Array.make n nan in
  let replies, wall_s =
    Workload.timed (fun () ->
        Array.mapi
          (fun i r ->
            let t0 = Workload.now () in
            let reply =
              Layers.span tracer "bench" (fun () -> serve tracer decoder r.frame)
            in
            latencies.(i) <- Workload.now () -. t0;
            reply)
          inputs.requests)
  in
  let checked =
    Array.mapi (fun i reply -> check_reply ~n_tasks:inputs.requests.(i).n_tasks reply) replies
  in
  let errors =
    List.filter_map
      (function Ok _ -> None | Error e -> Some e)
      (Array.to_list checked)
  in
  let makespans =
    Array.of_list
      (List.filter_map Result.to_option (Array.to_list checked))
  in
  let total f a = float_of_int (Array.fold_left (fun acc x -> acc + f x) 0 a) in
  {
    Workload.ops = n;
    failed = List.length errors;
    latencies;
    wall_s;
    digest = Workload.md5_hex (String.concat "" (Array.to_list replies));
    errors;
    facts = [ ("est_makespan_mean_s", Rats_util.Stats.mean makespans) ];
    counts =
      [
        (* [validate] and [plan] each build the request's DAG. *)
        ("daggen.tasks", 2. *. total (fun r -> r.n_tasks) inputs.requests);
        ("protocol.bytes_in", total (fun r -> String.length r.frame) inputs.requests);
        ("protocol.bytes_out", total String.length replies);
      ];
  }

let workload =
  Workload.W { Workload.name = "plan-large"; jobs = 1; setup; pass }
