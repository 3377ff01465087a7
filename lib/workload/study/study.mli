(** The study runner: one compiled trace, several scheduler arms, one
    comparison table.

    Every arm replays the {e same} timed requests against a fresh online
    {!Rats_server.Engine} that pins all jobs to the arm's scheduler, so the
    arms differ in nothing but planning: identical arrivals, identical
    admission policy, identical platform. A report's per-tenant rows are
    the engine's own ledger ({!Rats_server.Engine.stats}), profile tenants
    first in profile order, so a study is deterministic end to end — same
    profile, same seed, same policy ⇒ byte-identical CSV. {!run_arm} is the only driver of a trace through
    the engine, compiled ({!Rats_server.Load.requests}) or loaded from a
    file ({!Rats_server.Load.load}); [ratsd --selftest] runs on it too. *)

module Profile := Rats_workload.Profile
module Report := Rats_workload.Report

type arm =
  | Delta  (** RATS delta mapping (naive parameters). *)
  | Hcpa  (** HCPA allocation + baseline greedy mapping. *)
  | Timecost  (** RATS time-cost mapping (naive parameters). *)
  | Packing  (** Packing-constrained greedy baseline ({!Packing}). *)

val arm_name : arm -> string
(** ["delta"], ["hcpa"], ["time-cost"], ["packing"]. *)

val arm_of_string : string -> (arm, string) result

val default_arms : arm list
(** [\[Delta; Hcpa; Packing\]]: the default three-way comparison. *)

val all_arms : arm list

val run_arm :
  Rats_server.Engine.config ->
  profile:Profile.t ->
  requests:(float * Rats_server.Api.request) array ->
  arm ->
  Report.t * Rats_server.Api.stamped list
(** Submits every [(at, request)] to a fresh engine built from [config],
    drains it and reports the engine's per-tenant ledger; the event log is
    returned beside the report. The rows list the profile's tenants in
    profile order (zero for a tenant that never arrived), then every
    tenant the profile does not name, in first-arrival order — a replayed
    trace's jobs are all counted, whatever their tenants are called. RATS arms submit every request with the arm's strategy (so its
    [Submitted] events name it) and plan with {!Rats_server.Api.plan}; the
    packing arm keeps the request's strategy and plans through
    {!Packing.plan}. Raises [Invalid_argument] on a request
    {!Rats_server.Engine.submit} refuses. The arm
    decides [config.planner]; every other field (policy, workers, fault
    spec, clock) is the caller's. Bumps [rats_workload_arm_runs_total]. *)

val run :
  ?arms:arm list -> Rats_server.Engine.config -> Profile.t -> Report.t list
(** Compiles the profile's trace once and runs every arm over it
    ([arms] defaults to {!default_arms}), in order. *)

val csv : Report.t list -> string
(** Header plus one row per report, trailing newline — the byte-stable
    golden format under [bench_results/]. *)

val write_csv : string -> Report.t list -> unit
(** {!csv}, written atomically ({!Rats_obs.File.write_atomic}). *)
