(** Automatic parameter tuning (the paper's §V future work).

    The paper tunes (mindelta, maxdelta, minrho) offline per application
    type and cluster (Table IV) and "plans to allow the automatic tuning of
    the scheduling algorithm". This module implements two automatic
    selectors:

    - {b probe}: before committing to a schedule, run the whole parameter
      grid through the {e mapping step only} and keep the parameters with
      the best {e estimated} makespan. Mapping is three orders of magnitude
      cheaper than simulation, so probing the full grid costs less than one
      simulation; its blind spot is exactly the mapping estimate's blind
      spot (network contention).
    - {b rules}: closed-form parameter choices from application/platform
      features — the average parallelism [A], the communication-to-
      computation ratio (CCR), and the machine-to-application size ratio
      [P/A] — distilled from the Figure 4/5 sweeps: stretching wants to be
      generous everywhere ([maxdelta = 1]); packing pays only when the
      platform is crowded ([P/A] small); [minrho] loosens as communication
      dominates. *)

type features = {
  avg_parallelism : float;  (** [A = W₁ / D₁]. *)
  ccr : float;
      (** Σ edge transfer estimates / Σ sequential task times — > 1 means
          communication dominates. *)
  procs_per_parallelism : float;  (** [P / A]. *)
}

val features : Rats_core.Problem.t -> features

val probe_delta :
  alloc:int array -> Rats_core.Problem.t -> Rats_core.Rats.delta_params
(** Arg-min over {!Tuning.delta_grid} of the {e estimated} makespan of
    mapping [alloc] (the problem's HCPA allocation, e.g.
    {!Runner.prepared.alloc}). *)

val probe_timecost :
  alloc:int array -> Rats_core.Problem.t -> Rats_core.Rats.timecost_params
(** The same over {!Tuning.timecost_grid}. *)

val probe : alloc:int array -> Rats_core.Problem.t -> Rats_core.Rats.strategy
(** The better of the two probed strategies, by estimated makespan. *)

val rules_delta : features -> Rats_core.Rats.delta_params
val rules_timecost : features -> Rats_core.Rats.timecost_params

val selector_study :
  ?exec:Rats_runtime.Exec.t ->
  Rats_platform.Cluster.t -> Rats_daggen.Suite.config list ->
  (string * float option) list
(** Mean {e simulated} makespan relative to HCPA for each selector — naive
    delta, naive time-cost, probe, rules-delta, rules-time-cost — over the
    given configurations: the evaluation of the automatic tuners. Each
    selector is an arm of {!Runner.run_cells}, so one HCPA allocation per
    configuration serves every selector and probe, and the naive arms are
    Figure 2's cells. The probe's arm name includes
    {!Tuning.grid_signature}. A configuration whose record failed drops out
    of every mean; a selector no configuration survived is [None]. *)
