(** Experiment execution (paper §IV).

    For each application configuration the three algorithms share the same
    HCPA allocation (RATS reconsiders it during mapping), built once by
    {!prepare}; every schedule is replayed in the simulation engine and
    measured by simulated makespan and total work, the paper's two
    metrics.

    Suites execute through an {!Rats_runtime.Exec} context: deterministic
    pool ordering (parallel output is identical to serial), a
    content-addressed result cache, write-ahead journaling for
    crash-resumable sweeps, and fault-tolerant task execution (bounded
    retries, per-configuration timeout). Per-configuration results are
    keyed by (cluster signature, configuration name, algorithm parameters,
    code version) and stored as {!Payload} float tuples, which round-trip
    bit-exactly, so re-running a suite after an unrelated change is
    near-instant. Sweeps persist each configuration through
    {!Rats_runtime.Exec.keyed}; the plain {!run_config} goes through
    {!Rats_runtime.Exec.cached} under the same key.

    Failure contract: with a non-strict context a configuration that keeps
    failing after its retries occupies a slot in {!sweep.failed} instead of
    aborting the sweep; strict contexts fail fast with
    {!Rats_runtime.Exec.Task_failed}. *)

type measurement = { makespan : float; work : float }

type result = {
  config : Rats_daggen.Suite.config;
  cluster : string;
  hcpa : measurement;
  delta : measurement;
  timecost : measurement;
}

type failure = {
  config : Rats_daggen.Suite.config;
  cluster : string;
  error : Rats_runtime.Retry.failure;
}
(** One configuration that exhausted its retries, with the structured
    error (exception + backtrace + attempt count, or timeout). *)

type sweep = { results : result list; failed : failure list; total : int }
(** [results] is in suite order with failed configurations absent;
    [List.length results + List.length failed = total]. *)

val run_config :
  ?delta:Rats_core.Rats.delta_params ->
  ?timecost:Rats_core.Rats.timecost_params ->
  ?cache:Rats_runtime.Cache.t ->
  Rats_platform.Cluster.t ->
  Rats_daggen.Suite.config ->
  result
(** Parameters default to the paper's naive values (±0.5, ρ = 0.5 with
    packing). The plain primitive: no fault points, no retries, no journal
    — an error raises. With [cache], a hit skips the computation and a
    miss stores its result. *)

val run_config_outcome :
  ?delta:Rats_core.Rats.delta_params ->
  ?timecost:Rats_core.Rats.timecost_params ->
  exec:Rats_runtime.Exec.t ->
  Rats_platform.Cluster.t ->
  Rats_daggen.Suite.config ->
  result Rats_runtime.Exec.outcome
(** One configuration through the full fault-tolerance stack — cache
    lookup, journal replay, fault points, retries, timeout — returning the
    provenance-carrying outcome. The building block for custom sweeps
    (e.g. {!Figures.run_tuned_suite}). *)

val run_sweep :
  ?delta:Rats_core.Rats.delta_params ->
  ?timecost:Rats_core.Rats.timecost_params ->
  ?progress:bool ->
  ?exec:Rats_runtime.Exec.t ->
  Rats_daggen.Suite.scale ->
  Rats_platform.Cluster.t ->
  sweep
(** Runs every configuration of the suite on the cluster through [exec]
    (default {!Rats_runtime.Exec.make}: no cache, no faults, no retries).
    The result list is in suite order and identical for every worker
    count. [progress] (default false) reports throughput, ETA, cache-hit
    rate and failure counters on stderr. *)

val pp_failures : Format.formatter -> sweep -> unit
(** Prints one line per failed configuration (name + structured error);
    prints nothing when the sweep fully succeeded. *)

(** {2 The shared first step} *)

type prepared = {
  problem : Rats_core.Problem.t;
  alloc : int array;  (** The HCPA allocation every strategy maps. *)
  baseline : measurement;  (** The simulated HCPA schedule. *)
}
(** One application on one cluster, ready for any number of strategies. *)

val prepare : Rats_platform.Cluster.t -> Rats_dag.Dag.t -> prepared
(** Problem construction, HCPA allocation and the HCPA baseline
    simulation: the first step of every comparison against HCPA.
    {!run_config}, the {!Tuning} sweeps, {!Autotune.selector_study} and
    the {!Ccr_sweep} cells all start here; the {!Ablation} studies, which
    need no baseline, let {!Rats_core.Rats.schedule} allocate. *)

val measure : prepared -> Rats_core.Rats.strategy -> measurement
(** One strategy's mapping of the prepared allocation, simulated. *)

val first_samples :
  cap:int -> Rats_daggen.Suite.config list -> Rats_daggen.Suite.config list
(** The first-sample configurations ([sample = 0]), evenly thinned to at
    most [cap] so every shape stays represented — the subsets the tuning
    sweeps ({!Tuning.tuning_configs}) and the extension studies
    ({!Ablation.study_configs}) run on. *)
