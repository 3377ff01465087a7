(** The study runner: one compiled trace, several scheduler arms, one
    comparison table.

    Every arm replays the {e same} arrival trace against a fresh online
    {!Rats_server.Engine} that pins all jobs to the arm's scheduler, so the
    arms differ in nothing but planning: identical arrivals, identical
    admission policy, identical platform. Reports are tallied per tenant
    from the engine's event log in profile tenant order, so a study is
    deterministic end to end — same profile, same seed, same policy ⇒
    byte-identical CSV. {!run_arm} is the only driver of a compiled trace
    through the engine; [ratsd --selftest] runs on it too. *)

module Profile := Rats_workload.Profile
module Trace := Rats_workload.Trace
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
  trace:Trace.t ->
  arm ->
  Report.t * Rats_server.Api.stamped list
(** Submits [trace] to a fresh engine built from [config], drains it and
    tallies the event log, which is returned beside the report. RATS arms
    submit every job with the arm's strategy (so its [Submitted] events
    name it) and plan with {!Rats_server.Api.plan}; the packing arm keeps
    the trace's strategy and plans through {!Packing.plan}. The arm
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
