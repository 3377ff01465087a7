(** RATS — Redistribution Aware Two-Step scheduling (paper §III, Alg. 1).

    The mapping step processes ready tasks in rounds: all currently ready
    tasks are sorted (primary key: decreasing bottom level; secondary key:
    strategy-specific, stable) and mapped in that order; tasks becoming ready
    during a round wait for the next one. For each popped task the strategy
    decides whether to {e replace its allocation by the exact processor set
    of one of its predecessors} — eliminating that redistribution — or to
    fall back to the decoupled {!Mapping.baseline_choice}:

    - {b delta} bounds how far the processor count may move:
      stretching is allowed when [δ⁺ = min (Np(pred) − Np(t))] over larger
      predecessors is at most [⌊maxdelta·Np(t)⌋]; packing when
      [δ⁻ = max (Np(pred) − Np(t))] over smaller predecessors is at least
      [−⌊−mindelta·Np(t)⌋]. When both are possible the smaller change wins
      (stretch on ties). Ready tasks of equal priority are ordered by
      increasing [δ(t) = min(δ⁺, −δ⁻)] — least-modification first.
    - {b time-cost} stretches onto the predecessor maximizing the work ratio
      [ρ = (T(t,Np(t))·Np(t)) / (T(t,Np(pred))·Np(pred))] provided
      [ρ ≥ minrho], and (when [packing] is on) packs onto a smaller
      predecessor only if the estimated finish time does not exceed the
      baseline mapping's. Secondary sort: decreasing
      [gain(t) = max (T(t,Np(t)) − T(t,Np(pred)))].

    Virtual entry/exit tasks and zero-byte edges never participate in the
    strategies (there is no redistribution to save).

    Note on Alg. 1 lines 11–12 ("recompute … resort if necessary"): the sort
    keys δ and gain depend only on allocations already fixed, so they never
    change within a round; the finish-time estimates that {e do} change when
    a sibling claims a predecessor's processors are recomputed here at pop
    time, which subsumes the recomputation the pseudo-code describes. *)

type delta_params = { mindelta : float; maxdelta : float }
(** [mindelta ∈ \[−1, 0\]] (fraction of processors removable), [maxdelta ≥ 0]
    (fraction addable). The paper's naive setting is [(−0.5, 0.5)]. *)

type timecost_params = { minrho : float; packing : bool }
(** [minrho ∈ (0, 1]]. The paper's naive setting is [(0.5, true)]. *)

type strategy =
  | Baseline  (** Pure two-step HCPA mapping — the comparison baseline. *)
  | Delta of delta_params
  | Timecost of timecost_params

val naive_delta : delta_params
val naive_timecost : timecost_params

val strategy_name : strategy -> string

val check_strategy : strategy -> (unit, string) result
(** [Error] names the first parameter outside its documented range; NaN
    and the infinities are outside every range. {!schedule} raises
    [Invalid_argument] on exactly these strategies. *)

val schedule : ?alloc:int array -> Problem.t -> strategy -> Schedule.t
(** [schedule p strategy] runs the two-step algorithm: HCPA allocation
    (unless [alloc] is supplied) followed by the strategy's mapping. *)

type stats = { stretched : int; packed : int; unchanged : int }
(** Mapping decisions taken: tasks mapped onto a larger predecessor set, a
    smaller one, or left on their first-step allocation (virtual tasks and
    baseline mappings count as unchanged). *)

val schedule_with_stats :
  ?alloc:int array -> Problem.t -> strategy -> Schedule.t * stats
(** Like {!schedule}, also reporting what the strategy actually did — the
    instrumentation behind the redistribution-savings analyses. *)
