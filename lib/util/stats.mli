(** Small statistics helpers for the experiment harness. *)

val mean : float array -> float
(** Arithmetic mean; 0 on the empty array. *)

val geometric_mean : float array -> float
(** Geometric mean of strictly positive values; 1 on the empty array. *)

val median : float array -> float
(** Median (average of middle pair for even lengths); 0 on the empty array.
    Does not modify its argument. *)

val stddev : float array -> float
(** Population standard deviation; 0 on arrays of length < 2. *)

val min_max : float array -> float * float
(** Raises [Invalid_argument] on the empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p ∈ \[0, 100\]]: the linearly interpolated
    order statistic at rank [p/100·(n−1)] (the common "type 7" estimator;
    [percentile xs 50. = median xs]). 0 on the empty array; raises
    [Invalid_argument] on [p] outside the range. *)

val mean_std : float array -> float * float
(** One-pass (mean, population standard deviation) via Welford's streaming
    moments — numerically stable on large offsets, and
    [mean_std xs = (mean xs, stddev xs)] up to rounding. (0, 0) on the
    empty array; the deviation is 0 for arrays of length < 2. *)

val jain_fairness : float array -> float
(** Jain's fairness index [(Σx)² / (n·Σx²)] over non-negative allocations:
    1 when every value is equal (perfect fairness), [1/n] when a single
    value holds everything. By convention 1 on the empty and the all-zero
    array (nothing is shared unfairly). Raises [Invalid_argument] on a
    negative value. *)

val fraction_below : float array -> float -> float
(** [fraction_below xs x] is the fraction of elements strictly below [x]. *)
