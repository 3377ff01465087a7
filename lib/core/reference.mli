(** Pure-parallelism reference allocations.

    Mixed parallelism is motivated (Chakrabarti, Demmel & Yelick, SPAA'95 —
    the paper's [1]) by beating both degenerate strategies:

    - {e pure data parallelism}: run tasks one after the other, each on the
      whole machine — scalability is then limited by Amdahl's [α] and the
      machine size;
    - {e pure task parallelism}: give every task one processor — no moldable
      speedup at all, parallelism limited by the DAG's width.

    These allocations, mapped with the standard list-scheduling step, bound
    the mixed-parallel schedulers from both sides and power the
    mixed-vs-pure ablation bench. *)

val data_parallel : Problem.t -> Schedule.t
(** Pure data parallelism, mapped with the baseline list scheduler (all
    tasks share the full-machine processor set, so no redistribution is
    ever paid). *)

val task_parallel : Problem.t -> Schedule.t
(** Pure task parallelism under the baseline list scheduler. *)
