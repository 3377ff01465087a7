(** Typed read-back of a {!Metrics} snapshot.

    {!Metrics.snapshot} renders the registry as a JSON object; this module
    is the other direction — parsing that object (a [--metrics FILE] dump,
    or the ["metrics"] member embedded in [BENCH_runtime.json] since report
    schema 2) into association lists a report generator can walk without
    re-implementing the shape. A document must have all three sections as
    objects; inside them a malformed member is skipped, so a snapshot from
    a newer writer still yields everything this reader understands. *)

type hist = {
  count : int;
  sum : float;
  buckets : (float * int) list;
      (** Per-bucket (upper bound, count), non-cumulative, in document
          order; the overflow bucket's bound is [infinity]. *)
}

type t = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist) list;
}
(** All three sections in document order (the registry writes them sorted
    by name, so order is deterministic). *)

val empty : t

val of_json : Json.t -> (t, string) result
(** Parse a snapshot document — the whole [--metrics] file, or the value
    of a report's ["metrics"] member. Fails unless its [counters],
    [gauges] and [histograms] members are all JSON objects. *)

val of_file : string -> (t, string) result
(** Read and parse a snapshot file written by {!Metrics.write_json}; every
    error names the file. *)

val counter : t -> string -> int option
val histogram : t -> string -> hist option
