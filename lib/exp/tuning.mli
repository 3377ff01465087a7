(** Parameter sweeps of §IV-C: Figures 4 and 5, Table IV.

    For each application configuration the DAG, the HCPA allocation and the
    HCPA baseline makespan are computed once; every grid point then only
    pays its own RATS mapping + simulation. Averages are arithmetic means of
    the per-configuration relative makespans, as in the paper.

    All entry points take an optional {!Rats_runtime.Exec} context
    (default: plain serial execution, no cache, no faults). Under fault
    injection a failed configuration or grid point is dropped from the
    averages — counted in [exec.stats], reported by the CLIs. The cached
    entry points ({!sweep_delta_for}, {!sweep_timecost_for}, {!table4})
    persist whole sweeps through {!Rats_runtime.Exec.cached}, in the
    {!Payload} grammar under a {!Payload.key} that names the grids: a sweep
    that lost any unit is never stored, so degraded data cannot be replayed
    as complete on a later warm run. *)

val mindelta_values : float list
(** {0, −0.25, −0.5, −0.75} — 0 disables packing. *)

val maxdelta_values : float list
(** {0, 0.25, 0.5, 0.75, 1} — 0 disables stretching. *)

val minrho_values : float list
(** {0.2, 0.4, 0.5, 0.6, 0.8, 1}. *)

val grid_signature : string list
(** The three grids above as cache-key parts; every cached result computed
    over them (Figures 4 and 5, Table IV, {!Autotune.selector_study}) names
    them in its key. *)

type prepared
(** A configuration ready for sweeping (problem + allocation + baseline). *)

val prepare :
  ?exec:Rats_runtime.Exec.t ->
  Rats_platform.Cluster.t -> Rats_daggen.Suite.config list -> prepared list
(** DAG generation + HCPA allocation + baseline simulation per
    configuration, on the context's worker pool. *)

val average_relative : prepared list -> Rats_core.Rats.strategy -> float
(** Mean over the prepared configurations of (strategy makespan / HCPA
    makespan). *)

val configs_of_kind :
  Rats_daggen.Suite.scale -> Rats_daggen.Suite.app_kind ->
  Rats_daggen.Suite.config list

val tuning_configs :
  Rats_daggen.Suite.scale -> Rats_daggen.Suite.app_kind ->
  Rats_daggen.Suite.config list
(** Subsample used by {!table4}: first-sample configurations only, evenly
    thinned to at most 24 per kind — the sweeps visit every grid point for
    every configuration, so this bounds the tuning cost while covering all
    shapes. *)

type delta_point = {
  mindelta : float;
  maxdelta : float;
  avg_relative_makespan : float;
}

val sweep_delta :
  ?exec:Rats_runtime.Exec.t -> prepared list -> delta_point list
(** The full mindelta × maxdelta grid (Figure 4), parallel over grid
    points. *)

type timecost_point = {
  packing : bool;
  minrho : float;
  avg_relative_makespan : float;
}

val sweep_timecost :
  ?exec:Rats_runtime.Exec.t -> prepared list -> timecost_point list
(** Both packing settings × every minrho (Figure 5), parallel over grid
    points. *)

val sweep_delta_for :
  ?exec:Rats_runtime.Exec.t ->
  Rats_platform.Cluster.t -> Rats_daggen.Suite.config list -> delta_point list
(** [prepare] + {!sweep_delta}, with the whole point list as one cache
    entry — a warm Figure 4 regeneration skips every replay. *)

val sweep_timecost_for :
  ?exec:Rats_runtime.Exec.t ->
  Rats_platform.Cluster.t -> Rats_daggen.Suite.config list ->
  timecost_point list
(** [prepare] + {!sweep_timecost} as one cache entry (Figure 5). *)

type tuned = { delta : Rats_core.Rats.delta_params; minrho : float }

val best : delta_point list -> timecost_point list -> tuned
(** Arg-min of each sweep; time-cost packing is always enabled in the tuned
    setting (the paper observes packing always helps). *)

val table4 :
  ?exec:Rats_runtime.Exec.t ->
  Rats_daggen.Suite.scale ->
  (string * (Rats_daggen.Suite.app_kind * tuned) list) list
(** For every cluster, the tuned parameters per application kind — the
    reproduction of Table IV. With a cache, each (cluster, kind) cell is one
    entry keyed by cluster signature, configuration set and sweep grids; a
    hit skips that cell's prepare + sweep pipeline entirely. *)

val tuned_for :
  (string * (Rats_daggen.Suite.app_kind * tuned) list) list ->
  cluster:string ->
  kind:Rats_daggen.Suite.app_kind ->
  tuned
(** Lookup helper; raises [Not_found] on unknown keys. *)
