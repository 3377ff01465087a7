(** Experiment execution (paper §IV).

    Every number of the evaluation is a mean over {e cells}: one schedule
    of one configuration on one cluster, simulated and measured by
    makespan and total work, the paper's two metrics. The arms of a
    configuration share one HCPA allocation (RATS reconsiders it during
    mapping) and are compared with the HCPA schedule of it.

    {!run_cells} is the one executor. It drops duplicate cells and groups
    the rest by {e record}, one per (cluster, configuration, flop factor).
    Each record is one unit of an {!Rats_runtime.Exec} context, run on its
    pool: read once (cache, otherwise journal); if it lacks a requested
    cell, the problem and its allocation are prepared once, only the
    missing cells are measured under the context's fault points, retries
    and timeout, and the grown record is stored and journaled once. Its
    payload is one ["id\t%h %h"] line per cell, and ["%h"] round-trips
    bit-exactly, so a replay equals a computation. Studies thus share the
    cells they have in common: Figure 6 replays Figure 2's HCPA schedules.

    A record whose unit keeps failing after its retries (non-strict
    contexts) is absent from the lookup, so its configuration drops out of
    every average of the batch, and nothing of it is stored; strict
    contexts fail fast with {!Rats_runtime.Exec.Task_failed}. *)

type measurement = { makespan : float; work : float }

(** {2 Cells} *)

type prepared = {
  problem : Rats_core.Problem.t;
  alloc : int array;  (** The HCPA allocation every mapped arm maps. *)
}
(** One application on one cluster, ready for any number of arms. *)

type arm
(** A name plus a way to build a schedule from a {!prepared} problem. The
    name identifies the arm's cells in a record, so it must cover
    everything the schedule depends on beyond the problem. *)

val arm : name:string -> (prepared -> Rats_core.Schedule.t) -> arm
(** A custom arm ({!Autotune}'s selectors). [name] holds no tab or
    newline. *)

val mapped : Rats_core.Rats.strategy -> arm
(** The strategy's mapping of the HCPA allocation, named from the
    strategy's ["%h"] parameters. *)

val hcpa : arm
(** [mapped Baseline]: the reference every relative makespan divides by. *)

val data_parallel : arm
(** {!Rats_core.Reference.data_parallel}, ignoring the allocation. *)

val task_parallel : arm
(** {!Rats_core.Reference.task_parallel}, ignoring the allocation. *)

type cell = {
  cluster : Rats_platform.Cluster.t;
  config : Rats_daggen.Suite.config;
  flop_factor : float;  (** Scales every task's computation ({!Ccr_sweep}). *)
  arm : arm;
  work_conserving : bool;  (** {!Rats_core.Evaluate.run}'s replay flags. *)
  optimize_placement : bool;
}

val cell :
  ?flop_factor:float ->
  ?work_conserving:bool ->
  ?optimize_placement:bool ->
  Rats_platform.Cluster.t ->
  Rats_daggen.Suite.config ->
  arm ->
  cell
(** Defaults: factor 1 and both replay flags on — the paper's setting. *)

val problem :
  ?flop_factor:float ->
  Rats_platform.Cluster.t ->
  Rats_daggen.Suite.config ->
  Rats_core.Problem.t
(** The configuration's DAG, every task's computation scaled by the factor
    (default 1, which leaves the DAG as generated), on the cluster. *)

type lookup = cell -> measurement option
(** [None] for a cell whose record failed or was not in the batch. *)

val run_cells : ?exec:Rats_runtime.Exec.t -> cell list -> lookup
(** The executor (see above) on [exec] (default {!Rats_runtime.Exec.make}:
    no cache, no faults, no retries). Measurements are identical for every
    worker count. *)

val mean : float list -> float option
(** {!Rats_util.Stats.mean}, or [None] when no measurement survived: a
    study value that reports prints ["-"]. *)

val relative_makespan :
  lookup ->
  ?flop_factor:float ->
  Rats_platform.Cluster.t ->
  Rats_daggen.Suite.config list ->
  arm ->
  float option
(** {!mean} of the arm's makespan over {!hcpa}'s, over the configurations
    whose record survived, in list order. *)

val first_samples :
  cap:int -> Rats_daggen.Suite.config list -> Rats_daggen.Suite.config list
(** The first-sample configurations ([sample = 0]), evenly thinned to at
    most [cap] so every shape stays represented — the subsets the tuning
    sweeps ({!Tuning.tuning_configs}) and the extension studies
    ({!Ablation.study_configs}) run on. *)

(** {2 Suites: HCPA, delta and time-cost per configuration} *)

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

val run_config_outcome :
  ?delta:Rats_core.Rats.delta_params ->
  ?timecost:Rats_core.Rats.timecost_params ->
  exec:Rats_runtime.Exec.t ->
  Rats_platform.Cluster.t ->
  Rats_daggen.Suite.config ->
  result Rats_runtime.Exec.outcome
(** The executor on one configuration's three cells, in the calling
    domain: one record lookup, and at most one store and one journal
    append. Parameters default to the paper's naive values (±0.5, ρ = 0.5
    with packing). The building block of {!run_sweep} and
    {!Figures.run_tuned_suite}. *)

val run_config :
  ?delta:Rats_core.Rats.delta_params ->
  ?timecost:Rats_core.Rats.timecost_params ->
  ?cache:Rats_runtime.Cache.t ->
  Rats_platform.Cluster.t ->
  Rats_daggen.Suite.config ->
  result
(** {!run_config_outcome} on a strict context with the optional cache and
    nothing else: no fault points, no retries, no journal; a failure
    raises {!Rats_runtime.Exec.Task_failed}. *)

val run_sweep :
  ?delta:Rats_core.Rats.delta_params ->
  ?timecost:Rats_core.Rats.timecost_params ->
  ?progress:bool ->
  ?exec:Rats_runtime.Exec.t ->
  Rats_daggen.Suite.scale ->
  Rats_platform.Cluster.t ->
  sweep
(** {!run_config_outcome} on every configuration of the suite, in
    parallel on [exec]'s pool (default {!Rats_runtime.Exec.make}). The
    result list is in suite order and identical for every worker count.
    [progress] (default false) reports throughput, ETA, cache-hit rate and
    failure counters on stderr. *)

val pp_failures : Format.formatter -> sweep -> unit
(** Prints one line per failed configuration (name + structured error);
    prints nothing when the sweep fully succeeded. *)
