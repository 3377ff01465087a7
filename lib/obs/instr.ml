(* --- simulator ---------------------------------------------------------- *)

let sim_runs = Metrics.counter "rats_sim_runs_total" ~help:"Simulations run to completion"

let sim_events =
  Metrics.counter "rats_sim_events_total"
    ~help:"Engine events processed (timer callbacks and flow completions)"

let sim_queue_depth_max =
  Metrics.gauge "rats_sim_event_queue_depth_max"
    ~help:"High-water mark of the simulator event queue"

let maxmin_solves =
  Metrics.counter "rats_sim_maxmin_solves_total" ~help:"Max-min fair rate recomputations"

let maxmin_iterations =
  Metrics.counter "rats_sim_maxmin_iterations_total"
    ~help:"Water-filling rounds across all max-min solves"

let maxmin_inc_refreshes =
  Metrics.counter "rats_sim_maxmin_inc_refreshes_total"
    ~help:"Incremental-solver refreshes that left some linked flow untouched"

let maxmin_full_refreshes =
  Metrics.counter "rats_sim_maxmin_full_refreshes_total"
    ~help:"Incremental-solver refreshes that re-solved every linked flow"

let maxmin_component_solves =
  Metrics.counter "rats_sim_maxmin_component_solves_total"
    ~help:"Per-component water-fills run by the incremental solver"

let maxmin_walk_stops =
  Metrics.counter "rats_sim_maxmin_walk_stops_total"
    ~help:"Component walks that stopped on reaching every loaded link"

let maxmin_inc_iterations =
  Metrics.counter "rats_sim_maxmin_inc_iterations_total"
    ~help:"Water-filling rounds across all incremental component solves"

let maxmin_dirty_flows =
  Metrics.counter "rats_sim_maxmin_dirty_flows_total"
    ~help:"Flows re-solved by incremental refreshes"

let maxmin_skipped_flows =
  Metrics.counter "rats_sim_maxmin_skipped_flows_total"
    ~help:"Linked flows whose rates incremental refreshes left untouched"

let maxmin_dirty_set_max =
  Metrics.gauge "rats_sim_maxmin_dirty_set_max"
    ~help:"Most flows re-solved by a single incremental refresh"

(* --- scheduling --------------------------------------------------------- *)

let alloc_runs = Metrics.counter "rats_alloc_runs_total" ~help:"CPA/HCPA allocations computed"

let alloc_refinements =
  Metrics.counter "rats_alloc_refinements_total"
    ~help:"One-processor refinement steps during CPA allocation"

let timing_tables =
  Metrics.counter "rats_timing_tables_built_total"
    ~help:"Moldable-timing tables precomputed (one per Problem)"

let timing_table_entries =
  Metrics.counter "rats_timing_table_entries_total"
    ~help:"T(t,p) entries precomputed across all timing tables"

let timing_lookups =
  Metrics.counter "rats_timing_lookups_total"
    ~help:"Moldable-timing table lookups (published at phase boundaries)"

let sanitize name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | '0' .. '9' | '_' -> c | _ -> '_')
    (String.lowercase_ascii name)

let map_strategy_counter ~strategy kind =
  let kind_name, help =
    match kind with
    | `Packed -> ("packed", "Mapping decisions that packed a task")
    | `Stretched -> ("stretched", "Mapping decisions that stretched a task")
    | `Unchanged -> ("unchanged", "Mapping decisions that kept the allocation")
    | `Eliminated -> ("redistributions_eliminated", "Redistributions eliminated by pack/stretch decisions")
  in
  Metrics.counter
    (Printf.sprintf "rats_map_%s_%s_total" (sanitize strategy) kind_name)
    ~help

(* Pre-register the full strategy × kind grid so snapshots always contain
   the names, even for a run that never maps with some strategy. *)
let () =
  List.iter
    (fun strategy ->
      List.iter
        (fun kind -> ignore (map_strategy_counter ~strategy kind))
        [ `Packed; `Stretched; `Unchanged; `Eliminated ])
    [ "hcpa"; "delta"; "time-cost" ]

(* --- runtime ------------------------------------------------------------ *)

let pool_tasks = Metrics.counter "rats_pool_tasks_total" ~help:"Tasks executed by the worker pool"

let pool_steals =
  Metrics.counter "rats_pool_steals_total"
    ~help:"Tasks claimed from another worker's shard"

let pool_workers_max =
  Metrics.gauge "rats_pool_workers_max" ~help:"Largest worker count used by a pool map"

let cache_hits = Metrics.counter "rats_cache_hits_total" ~help:"Result-cache hits"
let cache_misses = Metrics.counter "rats_cache_misses_total" ~help:"Result-cache misses"

let cache_quarantined =
  Metrics.counter "rats_cache_quarantined_total" ~help:"Corrupt cache entries quarantined"

let cache_read_seconds =
  Metrics.histogram "rats_cache_read_seconds" ~help:"Cache lookup latency"

let cache_write_seconds =
  Metrics.histogram "rats_cache_write_seconds" ~help:"Cache store latency"

let exec_failed =
  Metrics.counter "rats_exec_failed_total" ~help:"Tasks that exhausted their retries"

let exec_retried =
  Metrics.counter "rats_exec_retried_total" ~help:"Extra attempts beyond each task's first"

let exec_resumed =
  Metrics.counter "rats_exec_resumed_total" ~help:"Results replayed from the journal"

let exec_timeouts =
  Metrics.counter "rats_exec_timeouts_total" ~help:"Attempts abandoned at their deadline"

let fault_injections =
  Metrics.counter "rats_fault_injections_total"
    ~help:"Faults injected by Runtime.Fault across every site (crash, delay, corrupt)"

(* --- server ------------------------------------------------------------- *)

let server_jobs_submitted =
  Metrics.counter "rats_server_jobs_submitted_total"
    ~help:"Job submissions that reached the online engine (arrival events)"

let server_jobs_admitted =
  Metrics.counter "rats_server_jobs_admitted_total"
    ~help:"Submissions accepted by the admission policy"

let server_jobs_rejected =
  Metrics.counter "rats_server_jobs_rejected_total"
    ~help:"Submissions rejected by the admission policy"

let server_jobs_completed =
  Metrics.counter "rats_server_jobs_completed_total"
    ~help:"Jobs whose replay on the shared platform finished"

let server_queue_depth =
  Metrics.gauge "rats_server_queue_depth" ~help:"Jobs currently waiting in the service queue"

let server_queue_depth_max =
  Metrics.gauge "rats_server_queue_depth_max"
    ~help:"High-water mark of the service waiting queue"

let server_sojourn_seconds =
  Metrics.histogram "rats_server_sojourn_seconds"
    ~help:"Simulated completion minus arrival time per completed job"

let server_schedule_seconds =
  Metrics.histogram "rats_server_schedule_seconds"
    ~help:"Wall-clock time computing schedules per dispatch batch"

let server_jobs_expired =
  Metrics.counter "rats_server_jobs_expired_total"
    ~help:"Queued jobs dropped because their simulated queue-wait deadline passed"

let server_clients_evicted =
  Metrics.counter "rats_server_clients_evicted_total"
    ~help:"Client connections closed for exceeding their output-buffer budget"

let server_events_shed =
  Metrics.counter "rats_server_events_shed_total"
    ~help:"Event frames dropped instead of queued while the daemon was degraded"

(* --- workload ----------------------------------------------------------- *)

let workload_traces =
  Metrics.counter "rats_workload_traces_compiled_total"
    ~help:"Multi-tenant arrival traces compiled by the workload engine"

let workload_jobs =
  Metrics.counter "rats_workload_jobs_generated_total"
    ~help:"Jobs generated into workload arrival traces"

let workload_arm_runs =
  Metrics.counter "rats_workload_arm_runs_total"
    ~help:"Study arms (scheduler x trace) driven through the online engine"

(* --- helpers ------------------------------------------------------------ *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed hist f =
  let t0 = now_s () in
  Fun.protect ~finally:(fun () -> Metrics.observe hist (now_s () -. t0)) f
