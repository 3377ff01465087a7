(** The runtime report, [BENCH_runtime.json]: its writer and its reader.

    The bench harness records one {!target} per executed target — wall
    time, worker count, cache hits/misses and fault-tolerance counters
    (failed / retried / resumed configurations) attributed to that target
    — and writes a single JSON document at exit, giving future changes a
    perf and reliability trajectory to compare against. [studio report],
    [diff] and [serve] read it back with {!load}.

    Documents carry a [schema_version] field since version 2 (which also
    embeds the {!Rats_obs.Metrics} registry snapshot under ["metrics"]);
    readers treat its absence as version 1. *)

val schema_version : int
(** The version written by {!write}. *)

type target = {
  label : string;
  wall_s : float;
  jobs : int;
  cache_hits : int;
  cache_misses : int;
  failed : int;
  retried : int;
  resumed : int;
}

(** {2 Writing} *)

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
(** Targets are reported in recording order, each with the [jobs] given to
    {!create}; the fault counters default to 0. *)

val write : t -> string -> unit
(** Write the JSON document, with the current metrics registry snapshot,
    to the given path with {!Rats_obs.File.write_atomic}. *)

(** {2 Reading} *)

type doc = {
  path : string;  (** Where it was loaded from (diagnostics). *)
  version : int;  (** Schema version; 1 when the field is absent. *)
  scale : string option;  (** ["smoke"] / ["paper"]; [None] on v1 docs without it. *)
  jobs : int option;
  total_wall_s : float option;
  targets : target list;  (** Document order. *)
  metrics : Rats_obs.Snapshot.t option;  (** v2 embedded snapshot. *)
}
(** Both schema versions load: version 1 (no [schema_version], no embedded
    metrics) yields [metrics = None] and [scale = None] where the field is
    absent. Malformed target entries are skipped, missing numeric fields
    default to 0 — a reader of historical snapshots must not be the thing
    that breaks. *)

val of_json : path:string -> Rats_obs.Json.t -> doc
(** Total — an empty or alien object yields an empty report, not an
    error. [path] is carried through for diagnostics only. *)

val load : string -> (doc, string) result
(** Read and parse; errors are I/O or JSON-syntax only, and name the
    file. *)

val target : doc -> string -> target option
(** The first target with this label. *)
