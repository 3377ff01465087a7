(** Parameter sweeps of §IV-C: Figures 4 and 5, Table IV.

    Each application configuration is prepared once per sweep
    ({!Runner.prepare}: DAG, HCPA allocation, HCPA baseline makespan);
    every grid point then only pays its own RATS mapping + simulation.
    Averages are arithmetic means of the per-configuration relative
    makespans, as in the paper.

    All entry points take an optional {!Rats_runtime.Exec} context
    (default: plain serial execution, no cache, no faults). Under fault
    injection a failed configuration or grid point is dropped from the
    averages — counted in [exec.stats], reported by the CLIs. The cached
    entry points ({!sweep_delta_for}, {!sweep_timecost_for}) persist whole
    sweeps through {!Rats_runtime.Exec.cached}, in the {!Payload} grammar
    under a {!Payload.key} that names the grids: a sweep that lost any unit
    is never stored, so degraded data cannot be replayed as complete on a
    later warm run. A Table IV cell ({!tune_cell}) is built from those two
    entries, so Figures 4 and 5 and Table IV share them. *)

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
(** The three value lists above as cache-key parts; every cached result
    computed over them (Figures 4 and 5, {!Autotune.selector_study}) names
    them in its key. *)

val prepare :
  ?exec:Rats_runtime.Exec.t ->
  Rats_platform.Cluster.t -> Rats_daggen.Suite.config list ->
  Runner.prepared list
(** {!Runner.prepare} per configuration, on the context's worker pool; a
    configuration that fails drops out of the list. *)

val average_relative :
  ?jobs:int ->
  Runner.prepared list -> (Runner.prepared -> Rats_core.Rats.strategy) ->
  float
(** Mean over the prepared configurations of (makespan of the strategy
    picked for it / HCPA makespan). With [jobs] the configurations run on a
    pool of that size, otherwise serially in the caller; the value is the
    same either way. *)

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
  ?exec:Rats_runtime.Exec.t -> Runner.prepared list -> delta_point list
(** The full {!delta_grid} (Figure 4), parallel over grid points. *)

type timecost_point = {
  packing : bool;
  minrho : float;
  avg_relative_makespan : float;
}

val sweep_timecost :
  ?exec:Rats_runtime.Exec.t -> Runner.prepared list -> timecost_point list
(** The full {!timecost_grid} (Figure 5), parallel over grid points. *)

val sweep_delta_for :
  ?exec:Rats_runtime.Exec.t ->
  Rats_platform.Cluster.t -> Rats_daggen.Suite.config list -> delta_point list
(** {!prepare} + {!sweep_delta}, with the whole point list as one cache
    entry — a warm Figure 4 regeneration skips every replay. *)

val sweep_timecost_for :
  ?exec:Rats_runtime.Exec.t ->
  Rats_platform.Cluster.t -> Rats_daggen.Suite.config list ->
  timecost_point list
(** {!prepare} + {!sweep_timecost} as one cache entry (Figure 5). *)

type tuned = { delta : Rats_core.Rats.delta_params; minrho : float }

val best : delta_point list -> timecost_point list -> tuned
(** Arg-min of each sweep; time-cost packing is always enabled in the tuned
    setting (the paper observes packing always helps). *)

val tune_cell :
  ?exec:Rats_runtime.Exec.t ->
  Rats_platform.Cluster.t -> Rats_daggen.Suite.config list -> tuned
(** One Table IV cell: {!best} of {!sweep_delta_for} and
    {!sweep_timecost_for} on the same cluster and configurations. It has no
    cache entry of its own, so the grillon FFT and irregular cells replay
    Figures 4 and 5. *)

val table4 :
  ?exec:Rats_runtime.Exec.t ->
  Rats_daggen.Suite.scale ->
  (string * (Rats_daggen.Suite.app_kind * tuned) list) list
(** For every cluster, the tuned parameters per application kind
    ({!tune_cell} on {!tuning_configs}) — the reproduction of Table IV. *)

val tuned_for :
  (string * (Rats_daggen.Suite.app_kind * tuned) list) list ->
  cluster:string ->
  kind:Rats_daggen.Suite.app_kind ->
  tuned
(** Lookup helper; raises [Not_found] on unknown keys. *)
