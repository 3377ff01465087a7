(** Service-level study reports: one record per (profile, scheduler arm).

    The online engine keeps one {!per_tenant} record per tenant
    ([Rats_server.Engine.stats]); the study runner orders them (profile
    tenants first, so output is deterministic) and {!make} folds them into
    the service-level summary:
    throughput, sojourn moments ({!Rats_util.Stats.mean_std}) and tail
    percentiles (type-7, {!Rats_util.Stats.percentile}) over the pooled
    sojourns, and Jain's fairness index over per-tenant completion counts
    ({!Rats_util.Stats.jain_fairness} — 1 when every tenant got the same
    number of jobs through, → [1/T] when one tenant starves the rest).

    {!csv_header} / {!csv_row} render the comparison CSVs committed under
    [bench_results/]; floats print with [%.6f] so goldens are
    byte-stable. *)

type per_tenant = {
  tenant : string;
  submitted : int;
  completed : int;
  rejected : int;
  expired : int;
  sojourns : float array;  (** Completion order. *)
}

type t = {
  profile : string;
  arm : string;
  jobs : int;  (** Submitted, across tenants. *)
  completed : int;
  rejected : int;
  expired : int;
  end_time : float;  (** Simulated end of the drained trace. *)
  throughput : float;  (** Completed jobs per simulated second. *)
  sojourn_mean : float;
  sojourn_std : float;
  sojourn_p50 : float;
  sojourn_p99 : float;
  sojourn_p999 : float;
  fairness : float;  (** Jain's index over per-tenant completions. *)
  utilization : float;
  queue_depth_max : int;
  tenants : per_tenant list;
      (** Profile tenants in profile order, then any others in
          first-arrival order. *)
}

val make :
  profile:string ->
  arm:string ->
  end_time:float ->
  utilization:float ->
  queue_depth_max:int ->
  per_tenant list ->
  t

val csv_header : string

val csv_row : t -> string

val pp : Format.formatter -> t -> unit
(** Human-readable multi-line summary with a per-tenant table. *)
