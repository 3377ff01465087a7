(** From compiled workload traces to service requests, and the trace file
    that stores them.

    The conversion lives here, not in [Rats_workload], because the workload
    library sits below the service API. A saved trace holds exactly what
    [ratsd] journals: one {!Api.submission_to_json} record
    [{"at": …, "req": …}] per line, floats in the repo-wide [%.17g]
    form, so a trace replays bit-exactly. The study runner
    ([Rats_workload_study.Study.run_arm]), [workload --save-trace/--replay],
    [ratsd --selftest] and [rats_client --op load] all run on the timed
    requests {!requests} returns. *)

val request_of_job : Rats_workload.Trace.job -> Api.request
(** Converts a compiled workload job to a service request carrying the
    job's baked strategy: suite applications submit as [Api.Generated],
    pipeline chains as [Api.Inline] task/edge definitions. *)

val requests : Rats_workload.Trace.t -> (float * Api.request) array
(** Each job's arrival time with its {!request_of_job}, in trace order. *)

val save : string -> (float * Api.request) array -> unit
(** Writes one submission record per line, atomically
    ({!Rats_obs.File.write_atomic}): a reader sees the old file or the
    whole new one. *)

val load : string -> ((float * Api.request) array, string) result
(** Parses a file written by {!save}; blank lines are skipped. Every
    decode error, including a value a constructor rejects (a shape
    parameter outside (0,1], say), reads [FILE:LINE: reason]; a file that
    cannot be opened is the system's message, which names it. *)
