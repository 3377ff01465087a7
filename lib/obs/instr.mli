(** Instrumentation taxonomy: every metric the RATS stack emits, declared
    in one place.

    Handles are created at module initialisation, so any binary that links
    an instrumented layer exposes the full metric set (zero-valued when
    unused) — consumers like [studio check --require-bench-counters] can
    rely on names being present. The span taxonomy (category → names) is
    documented in DESIGN.md §6.

    Metric names are Prometheus-style; the strategy dimension is folded
    into the name ([rats_map_<strategy>_..._total], strategy ∈ {hcpa,
    delta, time_cost}) to keep the registry label-free. *)

(** {2 Simulator ([Sim.Engine], [Sim.Maxmin])} *)

val sim_runs : Metrics.counter
val sim_events : Metrics.counter  (** Engine events processed (timers + flow completions). *)

val sim_queue_depth_max : Metrics.gauge  (** High-water mark of the event queue. *)

val maxmin_solves : Metrics.counter
val maxmin_iterations : Metrics.counter  (** Water-filling rounds across all solves. *)

(** Incremental-solver counters ([Sim.Maxmin.Incremental], batched per
    engine and published when a run completes, like the engine's own
    counters). An {e inc} refresh re-solved only the components reachable
    from changed flows; a {e full} refresh re-solved every component
    (dirty set above the fallback threshold). [dirty + skipped] flows sum
    to the flows alive across all refreshes, so
    [skipped / (dirty + skipped)] is the fraction of rate computations the
    incremental solver avoided. *)

val maxmin_inc_refreshes : Metrics.counter
val maxmin_full_refreshes : Metrics.counter
val maxmin_component_solves : Metrics.counter
val maxmin_inc_iterations : Metrics.counter
val maxmin_dirty_flows : Metrics.counter
val maxmin_skipped_flows : Metrics.counter
val maxmin_dirty_set_max : Metrics.gauge

(** {2 Scheduling ([Core.Cpa]/[Hcpa]/[Rats])} *)

val alloc_runs : Metrics.counter
val alloc_refinements : Metrics.counter  (** One-processor increments during CPA allocation. *)

(** Moldable-timing memoization ([Dag.Timing] via [Core.Problem]). Builds
    and entry counts are bumped when a table is precomputed; lookups are
    accumulated per problem as plain counters and published in batches at
    phase boundaries (allocation, mapping and simulation ends), so the
    hot path never touches an atomic. *)

val timing_tables : Metrics.counter
val timing_table_entries : Metrics.counter
val timing_lookups : Metrics.counter

val map_strategy_counter :
  strategy:string -> [ `Packed | `Stretched | `Unchanged | `Eliminated ] -> Metrics.counter
(** Per-strategy mapping decision counters; [`Eliminated] counts
    redistributions eliminated (= packs + stretches). [strategy] is a
    {!val:Rats_core.Rats.strategy_name} result and is sanitised to
    [a-z0-9_]. *)

(** {2 Runtime ([Pool], [Cache], [Exec]/[Retry])} *)

val pool_tasks : Metrics.counter
val pool_steals : Metrics.counter
val pool_workers_max : Metrics.gauge

val cache_hits : Metrics.counter
val cache_misses : Metrics.counter
val cache_quarantined : Metrics.counter
val cache_read_seconds : Metrics.histogram
val cache_write_seconds : Metrics.histogram

val exec_failed : Metrics.counter
val exec_retried : Metrics.counter
val exec_resumed : Metrics.counter
val exec_timeouts : Metrics.counter

val fault_injections : Metrics.counter
(** Faults actually injected by [Runtime.Fault] (crash raises, delay
    sleeps, corrupted payloads), across every site. Zero in an unfaulted
    run — a chaos harness asserts it moved. *)

(** {2 Progress (sweep-level, fed by [Runtime.Progress])} *)

val progress_completed : Metrics.counter
val progress_cache_hits : Metrics.counter
val progress_failed : Metrics.counter
val progress_retried : Metrics.counter
val progress_resumed : Metrics.counter

(** {2 Online service ([Server.Engine] via [ratsd])}

    Counters follow the engine's event stream (submitted = arrival events,
    so metrics and event log agree); the sojourn histogram is in {e
    simulated} seconds, while [rats_server_schedule_seconds] is wall-clock
    — the service's actual scheduling latency per dispatch batch. *)

val server_jobs_submitted : Metrics.counter
val server_jobs_admitted : Metrics.counter
val server_jobs_rejected : Metrics.counter
val server_jobs_completed : Metrics.counter
val server_queue_depth : Metrics.gauge
val server_queue_depth_max : Metrics.gauge
val server_sojourn_seconds : Metrics.histogram  (** Simulated seconds. *)

val server_schedule_seconds : Metrics.histogram
(** Wall-clock seconds per dispatch batch (uses the engine's injected
    clock). *)

val server_jobs_expired : Metrics.counter
(** Queued jobs dropped at their simulated queue-wait deadline. *)

val server_clients_evicted : Metrics.counter
(** Connections closed by [ratsd] for exceeding their output budget. *)

val server_events_shed : Metrics.counter
(** Event frames dropped (not queued) while [ratsd] was degraded. *)

(** {2 Workload engine ([Rats_workload] via [bin/workload] and the bench)} *)

val workload_traces : Metrics.counter
(** Arrival traces compiled ([Rats_workload.Trace.compile] calls). *)

val workload_jobs : Metrics.counter
(** Jobs generated into arrival traces, across every compile. *)

val workload_arm_runs : Metrics.counter
(** Study arms driven through the online engine
    ([Rats_workload_study.Study.run_arm] calls). *)

(** {2 Helpers} *)

val now_s : unit -> float
(** Monotonic seconds, for latency measurements. *)

val timed : Metrics.histogram -> (unit -> 'a) -> 'a
(** Runs the thunk and observes its wall-clock duration (also when it
    raises). *)
