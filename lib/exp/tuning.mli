(** Parameter sweeps of §IV-C: Figures 4 and 5, Table IV.

    A sweep names, for every configuration, its HCPA cell and one cell per
    grid point, and runs them through {!Runner.run_cells}: parallel over
    configurations, each prepared once (DAG, HCPA allocation) however many
    grid points it serves. Averages are arithmetic means of the
    per-configuration relative makespans, as in the paper. Sweeps share
    their cells with every other study, so a Table IV cell replays Figures
    4 and 5, and Figure 2's naive cells serve as grid points.

    All entry points take an optional {!Rats_runtime.Exec} context
    (default: plain serial execution, no cache, no faults). Under fault
    injection a configuration whose record failed drops out of every
    average (counted in [exec.stats], reported by the CLIs); a grid point
    no configuration survived is dropped, and a Table IV cell without
    points is [None]. *)

val mindelta_values : float list
(** {0, −0.25, −0.5, −0.75} — 0 disables packing. *)

val maxdelta_values : float list
(** {0, 0.25, 0.5, 0.75, 1} — 0 disables stretching. *)

val minrho_values : float list
(** {0.2, 0.4, 0.5, 0.6, 0.8, 1}. *)

val delta_grid : Rats_core.Rats.delta_params list
(** Every (mindelta, maxdelta) pair, mindelta-major: the Figure 4 sweep
    and {!Autotune.probe_delta} visit it in this order. *)

val timecost_grid : Rats_core.Rats.timecost_params list
(** Packing off then on, each over every minrho: the Figure 5 sweep and
    {!Autotune.probe_timecost} visit it in this order. *)

val grid_signature : string list
(** The three value lists above as name parts; the probe selector of
    {!Autotune}, which searches both grids, names them. *)

val tuning_configs :
  Rats_daggen.Suite.scale -> Rats_daggen.Suite.app_kind ->
  Rats_daggen.Suite.config list
(** The kind's configurations thinned by {!Runner.first_samples} to at
    most 24 — the sweeps visit every grid point for every configuration,
    so this bounds the tuning cost while covering all shapes. *)

type delta_point = {
  mindelta : float;
  maxdelta : float;
  avg_relative_makespan : float;
}

val sweep_delta :
  ?exec:Rats_runtime.Exec.t ->
  Rats_platform.Cluster.t -> Rats_daggen.Suite.config list -> delta_point list
(** The full {!delta_grid} (Figure 4), in grid order. *)

type timecost_point = {
  packing : bool;
  minrho : float;
  avg_relative_makespan : float;
}

val sweep_timecost :
  ?exec:Rats_runtime.Exec.t ->
  Rats_platform.Cluster.t -> Rats_daggen.Suite.config list ->
  timecost_point list
(** The full {!timecost_grid} (Figure 5), in grid order. *)

type tuned = { delta : Rats_core.Rats.delta_params; minrho : float }

val best : delta_point list -> timecost_point list -> tuned option
(** Arg-min of each sweep, [None] when either has no point; time-cost
    packing is always enabled in the tuned setting (the paper observes
    packing always helps). *)

val tune_cell :
  ?exec:Rats_runtime.Exec.t ->
  Rats_platform.Cluster.t -> Rats_daggen.Suite.config list -> tuned option
(** One Table IV cell: {!best} of both sweeps on the same cluster and
    configurations, as one batch. *)

val table4 :
  ?exec:Rats_runtime.Exec.t ->
  Rats_daggen.Suite.scale ->
  (string * (Rats_daggen.Suite.app_kind * tuned option) list) list
(** For every cluster, the tuned parameters per application kind (a
    {!tune_cell} on {!tuning_configs}), all twelve cells as one batch — the
    reproduction of Table IV. *)

val tuned_for :
  (string * (Rats_daggen.Suite.app_kind * tuned option) list) list ->
  cluster:string ->
  kind:Rats_daggen.Suite.app_kind ->
  tuned option
(** Lookup helper; raises [Not_found] on unknown keys. *)
