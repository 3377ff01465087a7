(** Machine-readable runtime report ([BENCH_runtime.json]).

    The bench harness records one entry per executed target — wall time,
    worker count, cache hits/misses and fault-tolerance counters (failed /
    retried / resumed configurations) attributed to that target — and
    writes a single JSON document at exit, giving future changes a perf and
    reliability trajectory to compare against. JSON is emitted by hand
    (flat schema, no dependency) and read back with {!Rats_obs.Json}.

    Documents carry a [schema_version] field since version 2 (which also
    embeds the {!Rats_obs.Metrics} registry snapshot under ["metrics"]);
    readers treat its absence as version 1. *)

val schema_version : int
(** The version written by {!write}. *)

type t

val create : scale:string -> jobs:int -> unit -> t

val record :
  t ->
  label:string ->
  wall_s:float ->
  cache_hits:int ->
  cache_misses:int ->
  ?failed:int ->
  ?retried:int ->
  ?resumed:int ->
  unit ->
  unit
(** Entries are reported in recording order; the fault counters default to
    0. *)

val write : t -> string -> unit
(** Write the JSON document to the given path (atomically, via temp file +
    rename in the same directory). *)

val load : string -> (Rats_obs.Json.t, string) result
(** Parse a previously written report. Works on any schema version — use
    {!version_of} to discriminate. *)

val version_of : Rats_obs.Json.t -> int
(** The document's [schema_version]; documents from before the field
    existed report 1. *)
