(** Mapping-step machinery shared by the HCPA baseline and RATS.

    Holds the mutable mapping state — per-processor availability and the
    entries committed so far — the step-one allocation, and the
    finish-time estimation primitives. Start-time estimates combine
    processor availability with data-arrival times, pricing each incoming
    redistribution with the analytic {!Rats_redist.Redistribution.estimate}
    (zero when predecessor and task share the same processor set). Network
    contention is deliberately absent here, exactly like the estimates the
    paper's mapping procedures rely on (§IV-D discusses the consequences). *)

type t

val create : Problem.t -> alloc:int array -> t
(** [alloc] is copied, so later changes to the caller's array do not reach
    the mapping. *)

val problem : t -> Problem.t
val alloc : t -> int -> int
val entry : t -> int -> Schedule.entry
(** Raises [Invalid_argument] if the task is not mapped yet. *)

val earliest_set : t -> int -> Rats_util.Procset.t
(** The [np] processors with the earliest availability (ties by index). *)

val from_pred_set : t -> pred_procs:Rats_util.Procset.t -> int -> Rats_util.Procset.t
(** A set of size [np] anchored on a predecessor's processors: its [np]
    earliest-available members when it is large enough, otherwise all of it
    completed with the earliest-available outside processors. *)

val estimate : t -> int -> Rats_util.Procset.t -> float * float
(** [(start, finish)] of a task on a candidate set: all predecessors must be
    mapped; start = max(availability of the set, data arrival from each
    predecessor = pred finish + redistribution estimate). Only {!commit}
    changes what this reads, so until the next commit a repeated call for
    the same task and the same (physically equal) set returns the first
    result without pricing the redistributions again. *)

val baseline_choice : t -> int -> Rats_util.Procset.t
(** The decoupled mapping step of CPA/HCPA: the [alloc t]-many
    earliest-available processors, chosen {e without looking at where the
    predecessors ran} — this blindness to processor-set identity is
    precisely what makes two-step schedules pay avoidable redistributions
    (paper §I) and what the RATS strategies repair. *)

val commit : t -> int -> Rats_util.Procset.t -> Schedule.entry
(** Maps the task on the set: records the entry, marks the processors busy
    until the estimated finish (the {!estimate} a strategy already took for
    this set is reused), updates the allocation to the set's size. *)

val to_schedule : t -> Schedule.t
(** Raises [Invalid_argument] when some task is still unmapped. *)
