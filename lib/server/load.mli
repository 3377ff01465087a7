(** From compiled workload jobs to service requests.

    The conversion lives here, not in [Rats_workload], because the workload
    library sits below the service API. The study runner
    ([Rats_workload_study.Study.run_arm]) and [rats_client --op load]
    submit every trace through it. *)

val request_of_job : Rats_workload.Trace.job -> Api.request
(** Converts a compiled workload job to a service request carrying the
    job's baked strategy: suite applications submit as [Api.Generated],
    pipeline chains as [Api.Inline] task/edge definitions. *)
