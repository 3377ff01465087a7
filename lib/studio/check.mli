(** Validation of the files a traced run writes ([--trace] and
    [--metrics]): the machine end of [studio check] and of
    [make studio-smoke].

    Every function reads and decodes through the same code the report
    renderer uses ({!Rats_obs.Trace.events_of_json},
    {!Rats_obs.Snapshot}) and returns the first violation as an [Error]
    naming the file or the metric. *)

val trace : string -> (Rats_obs.Trace.event list, string) result
(** Reads, parses and decodes a Chrome trace-event file. *)

val metrics : string -> (Rats_obs.Snapshot.t, string) result
(** Reads a metrics snapshot; fails unless its [counters], [gauges] and
    [histograms] sections are all JSON objects. *)

type need =
  | Counter_present  (** Registered; zero is fine. *)
  | Counter_positive  (** Moved at least once. *)
  | Histogram_observed  (** Recorded at least one observation. *)

val bench_requirements : (string * need) list
(** The metrics a bench-harness run must show: simulator events, cache
    hits and misses with read/write latency histograms, pool task and
    steal counters, per-strategy pack/stretch counters and eliminated
    redistributions. A cold run has no cache hits and a serial run no
    steals, so those two only need to be registered. *)

val bench_counters : Rats_obs.Snapshot.t -> (unit, string) result
(** Checks {!bench_requirements} in order; the error names the first
    metric that is missing, or zero where it must be positive. *)
