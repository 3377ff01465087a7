(** Communication-intensity crossover study.

    The paper targets applications "dominated by the data for which the
    communication costs cannot be neglected" (§I) but never varies that
    dominance. This sweep does: each application's computation amounts are
    scaled by a factor (datasets and hence transfer volumes stay fixed), so
    the communication-to-computation ratio moves from compute-dominated
    (large factor) to data-dominated (small factor). The redistribution
    savings of RATS should matter most at high CCR and fade as computation
    takes over — locating the crossover validates the paper's premise. *)

val flop_factors : float list
(** {8, 4, 2, 1, 1/2, 1/4} — CCR grows along the list. *)

type point = {
  flop_factor : float;
  ccr : float;  (** Mean bytes-transfer-time / computation-time ratio. *)
  delta_relative : float;  (** Mean makespan vs HCPA, naive delta. *)
  timecost_relative : float;
}

val run :
  ?exec:Rats_runtime.Exec.t ->
  Rats_platform.Cluster.t -> Rats_daggen.Suite.config list -> point list
(** HCPA, naive delta and naive time-cost cells of every (configuration,
    factor), as one {!Runner.run_cells} batch: parallel over those pairs,
    each one record with the factor on its cells, so an interrupted sweep
    resumes per pair and factor 1 replays Figure 2's cells. The CCR column
    is computed from each problem, not stored. A failed pair drops out of
    its factor's averages; a factor that lost every pair yields no
    point. *)

val print : Format.formatter -> point list -> unit
