(** Comparison metrics of the evaluation section.

    - {e relative makespan / work} (Figures 2, 3, 6, 7): RATS value divided
      by HCPA's for the same configuration, each series sorted independently
      by increasing value;
    - {e pairwise comparison} (Table V): per algorithm pair, in how many
      scenarios one is better / equal / worse (two makespans are "equal"
      within a 0.1 % relative tolerance), plus the combined
      better/equal/worse percentages of each algorithm against all others;
    - {e degradation from best} (Table VI): percent distance to the best
      makespan of the scenario, averaged (a) over all experiments and
      (b) over only the experiments where the algorithm was not best. *)

type series = { label : string; values : float array }

val relative_makespan : Runner.result list -> series list
(** [Delta] and [Time-cost] series relative to HCPA, sorted increasing. *)

val relative_work : Runner.result list -> series list

val mean_and_win_fraction : series -> float * float
(** (mean of the series, fraction of values < 1). *)

type pairwise_cell = { better : int; equal : int; worse : int }

val pairwise : Runner.result list -> string array * pairwise_cell array array
(** [(labels, m)] with [m.(i).(j)] comparing algorithm [i] against [j] by
    simulated makespan. Diagonal cells are all-zero. *)

val combined_percent : pairwise_cell array array -> int -> pairwise_cell * float array
(** For algorithm [i]: summed cells against all others and the
    better/equal/worse percentages. *)

type degradation = {
  label : string;
  avg_over_all : float;  (** percent *)
  n_not_best : int;
  avg_over_not_best : float;  (** percent *)
}

val degradation_from_best : Runner.result list -> degradation list

