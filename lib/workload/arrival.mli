(** Composable arrival processes of the workload engine.

    Each tenant of a workload profile owns one arrival process; the trace
    compiler steps it once per generated job, interleaved with the job's
    other draws on the tenant's {!Rats_util.Rng} stream, so every process
    is deterministic under a seed and adding tenants never perturbs the
    streams of existing ones.

    The three process families cover the service-level study axes:

    - {b Poisson}: memoryless arrivals at a constant [rate] (exponential
      interarrivals by inverse transform) — the classic open-loop load,
      and bit-compatible with the historical load generator.
    - {b Bursty}: a two-state Markov-modulated Poisson process. The
      source alternates between an {e on} phase (rate [rate_on]) and an
      {e off} phase (rate [rate_off], may be 0), with exponentially
      distributed phase lengths of means [mean_on]/[mean_off] seconds —
      flash crowds followed by quiet.
    - {b Diurnal}: a non-homogeneous Poisson process with sinusoidal rate
      [base · (1 + amplitude · sin (2πt/period))], sampled by thinning —
      a day/night load curve. *)

type t =
  | Poisson of { rate : float }
  | Bursty of {
      rate_on : float;
      rate_off : float;
      mean_on : float;
      mean_off : float;
    }
  | Diurnal of { base : float; amplitude : float; period : float }

val validate : t -> unit
(** Raises [Invalid_argument] when a parameter leaves its domain:
    rates/means/periods must be positive ([rate_off] may be 0 but not
    both rates) and [amplitude ∈ \[0, 1\]]. *)

type state
(** Position of one tenant's stream inside its process (immutable). *)

val start : t -> state
(** The state before the first arrival, at simulated time 0. *)

val next : t -> state -> Rats_util.Rng.t -> state * float
(** [next p st rng] draws the next {e absolute} arrival time. Arrival
    times are non-decreasing across successive calls. The number of RNG
    draws consumed per step depends on the process (Poisson consumes
    exactly one, thinning and phase changes consume more), but is a
    deterministic function of the stream so far. *)

val times : t -> Rats_util.Rng.t -> n:int -> float array
(** [times p rng ~n] validates [p] and materialises the first [n]
    arrival times — the test- and analysis-friendly wrapper over
    {!start}/{!next}. *)
