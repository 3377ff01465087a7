(** Execution context for fault-tolerant experiment sweeps.

    One value of {!t} carries everything the experiment layer needs to run
    a unit of work: worker count, result {!Cache}, {!Fault} injection,
    {!Retry} policy (bounded retries + per-attempt timeout), strictness and
    the write-ahead {!Journal}. The default context (no cache, no faults,
    no retries, no journal, non-strict) makes every combinator an ordinary
    call — the happy path is unchanged.

    One persistence contract: a unit's result is persisted only when the
    unit succeeded. {!keyed} runs one unit behind the cache and the
    journal; callers that must see a stale result before computing (the
    experiment layer's per-configuration records) use the three parts it
    is built from, {!lookup}, {!run} and {!store}.

    Failure contract: in the default (non-strict) mode a task that keeps
    failing after its retries becomes a structured {!Retry.failure} in its
    own result slot; the sweep completes and the caller reports the
    failures. With [strict = true] the first failure raises {!Task_failed}
    and pool workers stop claiming work — the historical fail-fast
    behavior, restored by [--strict]. *)

type stats = {
  failed : int Atomic.t;  (** Tasks that exhausted their retries. *)
  retried : int Atomic.t;  (** Extra attempts beyond each task's first. *)
  resumed : int Atomic.t;  (** Results replayed from the journal. *)
}

type t = {
  jobs : int;
  cache : Cache.t option;
  fault : Fault.t option;
  retry : Retry.policy;
  strict : bool;
  journal : Journal.t option;
  stats : stats;
}

exception Task_failed of string * Retry.failure
(** Raised (in strict mode) with the task name and its failure. *)

val make :
  ?jobs:int ->
  ?cache:Cache.t ->
  ?fault:Fault.t ->
  ?retry:Retry.policy ->
  ?strict:bool ->
  ?journal:Journal.t ->
  unit ->
  t
(** Defaults: [jobs = Pool.default_jobs ()], no cache, no fault injection,
    {!Retry.default} (no retries, no timeout), [strict = false], no
    journal. *)

val of_env :
  ?jobs:int ->
  ?retry:Retry.policy ->
  ?strict:bool ->
  ?journal:Journal.t ->
  unit ->
  t
(** Like {!make} but the cache comes from {!Cache.of_env} and fault
    injection from {!Fault.of_env} ([RATS_FAULT]); the fault configuration
    is threaded into the cache so write faults fire there too. *)

type source = Computed | From_cache | From_journal

type 'a outcome = {
  source : source;  (** Meaningful when [value] is [Ok]. *)
  attempts : int;  (** 1 for cache/journal replays. *)
  value : ('a, Retry.failure) result;
}

val lookup :
  t ->
  name:string ->
  key:string ->
  decode:(string -> 'a option) ->
  ('a * source) option
(** The persisted result under [key]: the cache's copy ([From_cache]),
    otherwise the journal's ([From_journal]), which is promoted into the
    cache. A journal record counts toward [stats.resumed] only when the
    run being resumed wrote it ({!Journal.resumes}), not when this run
    appended it. One cache lookup; a payload that does not decode is a
    miss. *)

val run : t -> name:string -> (unit -> 'a) -> 'a outcome
(** Computes one unit under the context's fault points (site ["worker"],
    keyed by [name] and attempt number), retry policy and timeout,
    updating {!stats}. The source is [Computed]; in strict mode a final
    failure raises {!Task_failed}. *)

val store : t -> key:string -> string -> unit
(** Persists a computed payload: stored in the cache, then appended to the
    journal. *)

val keyed :
  t ->
  name:string ->
  key:string ->
  encode:('a -> string) ->
  decode:(string -> 'a option) ->
  (unit -> 'a) ->
  'a outcome
(** {!lookup}, otherwise {!run}, and on success {!store} of the encoded
    result. Keys are expected to come from {!Cache.key}. *)

val map_outcome : t -> run:('a -> 'b outcome) -> 'a list -> 'b outcome list
(** Pool-parallel outcome map, for callers that build their per-item work
    from {!keyed} or {!run} (and therefore need the cache/journal
    provenance of each slot). Output order matches input order for every
    worker count. In non-strict mode an exception escaping [run] itself
    (a bug rather than a task fault) is captured as a [Crashed] failure in
    its slot and counted in [stats.failed]. *)
