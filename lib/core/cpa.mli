(** CPA allocation — Critical Path and Area-based scheduling, step one
    (Radulescu & van Gemund, ICPP 2001; paper §II-C).

    Start with one processor per task. While the critical-path length [C∞]
    exceeds the average area [W = Σωᵢ / P], give one more processor to the
    critical-path task that benefits the most from the increase. [C∞] and
    [W] are both lower bounds on the makespan, so [C∞ = W] is the sweet spot
    where trading task parallelism for data parallelism stops paying.

    The loop's critical paths are computation-only: Amdahl task times under
    the current allocation, no edge costs, because redistribution costs
    are unknown before mapping (paper §I). Virtual entry/exit tasks always
    keep one processor.

    One refinement changes one task's time, so the loop keeps the times in
    an array and recomputes only the bottom levels, in one pass over the
    DAG's stored topological order. [W] is kept as a running [Σω] that
    only decides when [C∞] clearly exceeds it; every other stop test uses
    the exact left-to-right {!average_area}. Allocations and refinement
    counts are exactly those of recomputing everything each refinement. *)

val allocate : Problem.t -> int array
(** [allocate p] returns the per-task processor counts. *)

val allocate_with : Problem.t -> max_per_task:int -> int array
(** Generalized procedure additionally capping every task's allocation at
    [max_per_task] — the hook {!Hcpa} uses to keep the large-platform bias
    of CPA in check. [max_per_task] must be ≥ 1; allocations are always also
    capped by the physical processor count. The loop stops when [C∞ ≤ W] or
    no critical-path task can still grow. *)

val allocate_capped : Problem.t -> cap:(int -> int) -> int array
(** Fully general variant with a per-task cap — {!Mcpa} caps by DAG-level
    width, {!Hcpa} uniformly. [cap i] must be ≥ 1 for every task. *)

val average_area : Problem.t -> alloc:int array -> area_procs:int -> float
(** [Σ task_work / area_procs] under [alloc] — exposed for tests and
    diagnostics. *)

val bottom_levels : Problem.t -> alloc:int array -> float array
(** Bottom level of every task under [alloc] (task times + edge cost
    estimates) — the primary mapping priority of CPA, HCPA and RATS. *)
