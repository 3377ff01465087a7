(** Thread-safe progress and throughput reporting.

    Replaces the ad-hoc stderr printing of the experiment runner: one
    reporter is shared by every {!Pool} worker of a suite run, guarded by a
    mutex, and rate-limited so parallel runs do not drown stderr. Reports
    completed/total, configurations per second, an ETA extrapolated from
    current throughput, and the cache-hit rate so far. The cache hits and
    the fault-tolerance counts — results resumed from the journal, units
    that failed, retries spent — are read from the metrics registry
    ([rats_cache_hits_total], [rats_exec_{resumed,failed,retried}_total]),
    as their change since the reporter was created; the fault counts
    appear in the report lines only once nonzero, so clean runs print
    exactly what they always did. *)

type t

val create : ?enabled:bool -> label:string -> total:int -> unit -> t
(** [enabled] defaults to [true]; a disabled reporter turns {!step} and
    {!finish} into no-ops so callers never branch. *)

val step : t -> unit
(** Record one finished unit, whatever its outcome. Safe to call from any
    domain. Prints at most every half second. *)

val finish : t -> unit
(** Print the summary line (total wall time, throughput, hit rate, fault
    counters when any). *)
