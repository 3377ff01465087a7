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

    Each study names its cells and runs them as one {!Runner.run_cells}
    batch, parallel over configurations: placement and replay are the
    cells' replay flags, the window is the cell's cluster, and the pure
    corners are reference arms. Cells any other study measured are not
    simulated again. Studies take an optional {!Rats_runtime.Exec} context
    (default: serial, no cache, no faults). Under fault injection a
    configuration whose record failed drops out of the study's values
    (counted in [exec.stats]); a value no configuration survived is
    [None]. *)

type ratios = {
  mean_ratio : float;  (** ablated / full, > 1 means the mechanism helps. *)
  max_ratio : float;
}

val placement_study :
  ?exec:Rats_runtime.Exec.t ->
  Rats_platform.Cluster.t -> Rats_daggen.Suite.config list ->
  (string * ratios option) list
(** One row per mapping strategy (HCPA baseline and time-cost RATS):
    optimized placement against natural receiver order. *)

val replay_study :
  ?exec:Rats_runtime.Exec.t ->
  Rats_platform.Cluster.t -> Rats_daggen.Suite.config list ->
  (string * ratios option) list
(** The same rows: work-conserving replay against strict order. *)

val window_study :
  ?exec:Rats_runtime.Exec.t ->
  Rats_daggen.Suite.config list -> (float * float option) list
(** [(tcp_wmax bytes, mean simulated makespan)] of HCPA schedules on a
    grelon-like hierarchical cluster, for windows from 16 KiB to 4 MiB. *)

val purity_study :
  ?exec:Rats_runtime.Exec.t ->
  Rats_platform.Cluster.t -> Rats_daggen.Suite.config list ->
  (string * float option) list
(** Mean simulated makespan of each strategy — time-cost RATS, HCPA, pure
    data-parallel, pure task-parallel — normalized to time-cost RATS. *)

val study_configs :
  Rats_daggen.Suite.scale -> Rats_daggen.Suite.config list
(** The shape-diverse subset the combined studies run on: the suite's
    first samples thinned by {!Runner.first_samples} to at most 20. *)

val print_all :
  ?exec:Rats_runtime.Exec.t ->
  Format.formatter -> Rats_daggen.Suite.scale -> unit
(** Runs all four studies on {!study_configs} and prints them; a value no
    configuration survived prints ["-"]. *)
