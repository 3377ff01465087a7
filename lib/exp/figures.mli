(** Text reproduction of every table and figure of the paper's evaluation.

    Each printer takes already-computed results so expensive runs can be
    shared between figures (e.g. Figures 2 and 3 reuse one suite run);
    [run_*] helpers produce those inputs. Curves are printed as percentile
    tables (a terminal-friendly rendering of the paper's sorted-series
    plots) together with the summary statistics the paper quotes in prose:
    average relative makespan and fraction of scenarios with improvement. *)

val table1 : Format.formatter -> unit
(** The 10-units / 4-senders / 5-receivers communication matrix. *)

val table2 : Format.formatter -> unit
(** Cluster characteristics. *)

val table3 : Format.formatter -> Rats_daggen.Suite.scale -> unit
(** DAG generation parameters and configuration counts. *)

val fig2 : Format.formatter -> Runner.result list -> unit
(** Relative makespan vs HCPA, naive parameters, sorted series. *)

val fig3 : Format.formatter -> Runner.result list -> unit
(** Relative work vs HCPA. *)

val fig4 : Format.formatter -> Tuning.delta_point list -> unit
(** Delta-strategy (mindelta × maxdelta) surface. *)

val fig5 : Format.formatter -> Tuning.timecost_point list -> unit
(** Time-cost minrho curves, packing on/off. *)

val table4 :
  Format.formatter ->
  (string * (Rats_daggen.Suite.app_kind * Tuning.tuned option) list) list ->
  unit
(** A cell without tuned parameters prints ["-"]. *)

val fig6 : Format.formatter -> Runner.result list -> unit
(** Tuned relative makespan. *)

val fig7 : Format.formatter -> Runner.result list -> unit
(** Tuned relative work. *)

val table5 : Format.formatter -> (string * Runner.result list) list -> unit
(** Pairwise comparison, cells "chti / grillon / grelon". *)

val table6 : Format.formatter -> (string * Runner.result list) list -> unit
(** Average degradation from best per cluster. *)

val run_tuned_suite :
  ?exec:Rats_runtime.Exec.t ->
  Rats_daggen.Suite.scale ->
  (string * (Rats_daggen.Suite.app_kind * Tuning.tuned option) list) list ->
  Rats_platform.Cluster.t ->
  Runner.result list
(** Suite run where every configuration uses its application kind's tuned
    parameters on that cluster (§IV-D). Executes through the context
    exactly like {!Runner.run_sweep} (cache, journal, fault points);
    configurations that exhaust their retries, or whose kind has no tuned
    parameters, are dropped from the result list and counted in
    [exec.stats]. *)

val pp_value :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a option -> unit
(** A study value, or ["-"] when no measurement survived. *)

val write_csv : string -> Runner.result list -> unit
(** Full per-configuration data (makespans and works of the three
    algorithms) for external plotting, written atomically
    ({!Rats_obs.File.write_atomic}). *)
