(** Ablation studies of the design choices DESIGN.md calls out.

    Four questions, each answered by re-measuring the same schedules with
    one mechanism disabled:

    - {b placement}: how much does the self-communication-maximizing
      receiver placement (paper §II-A) save, versus naturally ordered
      receiver ranks?
    - {b replay}: how much does the work-conserving execution discipline
      save versus strictly serving each processor in the mapper's order
      (head-of-line blocking)?
    - {b window}: how sensitive are makespans to SimGrid's empirical TCP
      bandwidth [β' = min(β, Wmax/RTT)]? Swept on a hierarchical cluster,
      where 4-hop routes make the window bind first.
    - {b purity}: mixed parallelism versus its two degenerate corners —
      pure data parallelism and pure task parallelism (the motivation of
      the paper's reference [1]).

    Studies run through an optional {!Rats_runtime.Exec} context (default:
    serial, no cache, no faults). Under fault injection a configuration
    that exhausts its retries drops out of the study averages (counted in
    [exec.stats]). With a cache each study persists as one aggregate entry
    ({!window_study}: one per window) through {!Rats_runtime.Exec.cached},
    in the {!Payload} grammar, so a study that lost any configuration is
    never stored. *)

type ratio_row = {
  label : string;
  mean_ratio : float;  (** ablated / full, > 1 means the mechanism helps. *)
  max_ratio : float;
}

val placement_study :
  ?exec:Rats_runtime.Exec.t ->
  Rats_platform.Cluster.t -> Rats_daggen.Suite.config list -> ratio_row list
(** One row per mapping strategy (HCPA baseline and time-cost RATS). All
    studies execute on the context's worker pool and, when it carries a
    cache, persist their full result as one entry keyed by study name,
    cluster signature and configuration set ({!Payload.key}). *)

val replay_study :
  ?exec:Rats_runtime.Exec.t ->
  Rats_platform.Cluster.t -> Rats_daggen.Suite.config list -> ratio_row list

val window_study :
  ?exec:Rats_runtime.Exec.t ->
  Rats_daggen.Suite.config list -> (float * float) list
(** [(tcp_wmax bytes, mean simulated makespan)] of HCPA schedules on a
    grelon-like hierarchical cluster, for windows from 16 KiB to 4 MiB. *)

val purity_study :
  ?exec:Rats_runtime.Exec.t ->
  Rats_platform.Cluster.t -> Rats_daggen.Suite.config list ->
  (string * float) list
(** Mean simulated makespan of each strategy — time-cost RATS, HCPA, pure
    data-parallel, pure task-parallel — normalized to time-cost RATS. *)

val study_configs :
  Rats_daggen.Suite.scale -> Rats_daggen.Suite.config list
(** The shape-diverse subset the combined studies run on: the suite's
    first samples thinned by {!Runner.first_samples} to at most 20. *)

val print_all :
  ?exec:Rats_runtime.Exec.t ->
  Format.formatter -> Rats_daggen.Suite.scale -> unit
(** Runs all four studies on {!study_configs} and prints them. *)
