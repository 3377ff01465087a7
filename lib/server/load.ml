module W_app = Rats_workload.App
module W_trace = Rats_workload.Trace

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
