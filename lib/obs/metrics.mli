(** Process-wide metrics registry: atomic counters, gauges and log-bucketed
    latency histograms.

    Metrics are registered by name on first use and live for the process;
    looking a name up twice returns the same metric (registering an
    existing name with a different kind raises [Invalid_argument]). Handles
    are meant to be created once at module initialisation and updated
    lock-free on hot paths — an update is one atomic read-modify-write, so
    the registry is always on and costs nothing measurable.

    Names follow Prometheus conventions ([a-zA-Z0-9_:], counters suffixed
    [_total], histograms in base units, e.g. [_seconds]); {!to_prometheus}
    renders the standard text exposition format and {!snapshot} a JSON
    object, both with metrics sorted by name so output is deterministic. *)

type counter
type gauge
type histogram

val counter : ?help:string -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : ?help:string -> string -> gauge

val set : gauge -> float -> unit

val observe_max : gauge -> float -> unit
(** Monotonic update: keeps the maximum of the current value and the
    observation (high-water-mark gauges). *)

val gauge_value : gauge -> float

val histogram : ?help:string -> string -> histogram
(** Log-2 bucketed histogram for durations in seconds: bucket upper bounds
    are [1µs · 2^i] for [i = 0 .. 31] (≈ 1 µs to ≈ 36 min) plus a [+inf]
    overflow bucket. *)

val observe : histogram -> float -> unit

val hist_count : histogram -> int
val hist_sum : histogram -> float

val bucket_counts : histogram -> (float * int) list
(** Per-bucket (upper bound, count) pairs, non-cumulative, overflow bucket
    last with upper bound [infinity]. *)

val bucket_index : float -> int
(** The bucket an observation lands in — exposed so tests can pin the
    boundary behaviour (values at a bucket's upper bound land in it). *)

val bucket_upper : int -> float
(** Upper bound of bucket [i] ([infinity] for the overflow bucket). *)

(** {2 Export} *)

val snapshot : unit -> Json.t
(** [{"counters": {..}, "gauges": {..}, "histograms": {name: {"count": n,
    "sum": s, "buckets": [{"le": ub, "count": c}, ..]}, ..}}] *)

val to_json : unit -> string
val to_prometheus : unit -> string

val write_json : string -> unit
val write_prometheus : string -> unit
(** Write {!to_json} or {!to_prometheus} with {!File.write_atomic}. *)

val reset : unit -> unit
(** Zeroes every registered metric (the registry keeps its entries). For
    tests and for delta measurements across bench targets. *)
