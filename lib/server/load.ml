module W_app = Rats_workload.App
module W_trace = Rats_workload.Trace
module J = Rats_obs.Json

let request_of_job (job : W_trace.job) =
  let spec =
    match job.W_trace.app with
    | W_app.Generated config -> Api.Generated config
    | W_app.Chain p ->
        let tasks =
          Array.map
            (fun (data_elements, flop, alpha) ->
              { Api.data_elements; flop; alpha })
            (W_app.pipeline_task_params p)
        in
        let edges =
          List.map
            (fun (src, dst, bytes) -> { Api.src; dst; bytes })
            (W_app.pipeline_edges p)
        in
        Api.Inline { name = W_app.name job.W_trace.app; tasks; edges }
  in
  {
    Api.tenant = job.W_trace.tenant;
    job = spec;
    strategy = job.W_trace.strategy;
    procs = job.W_trace.procs;
  }

let requests trace =
  Array.map
    (fun (job : W_trace.job) -> (job.W_trace.at, request_of_job job))
    trace

let save path requests =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun (at, r) ->
      Buffer.add_string buf (J.to_string (Api.submission_to_json ~at r));
      Buffer.add_char buf '\n')
    requests;
  Rats_obs.File.write_atomic path (Buffer.contents buf)

let load path =
  let read ic =
    let rec go lineno acc =
      match In_channel.input_line ic with
      | None -> Ok (Array.of_list (List.rev acc))
      | Some "" -> go (lineno + 1) acc
      | Some line -> (
          match Result.bind (J.parse line) Api.submission_of_json with
          | Ok s -> go (lineno + 1) (s :: acc)
          | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e))
    in
    go 1 []
  in
  match In_channel.with_open_bin path read with
  | result -> result
  | exception Sys_error e -> Error e
