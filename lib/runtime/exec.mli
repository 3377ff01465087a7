(** Execution context for fault-tolerant experiment sweeps.

    One value of {!t} carries everything the experiment layer needs to run
    a unit of work: worker count, result {!Cache}, {!Fault} injection,
    {!Retry} policy (bounded retries + per-attempt timeout), strictness and
    the write-ahead {!Journal}. The default context (no cache, no faults,
    no retries, no journal, non-strict) makes every combinator an ordinary
    call — the happy path is unchanged.

    Two persistence paths, which differ by contract: {!keyed} runs one
    unit of work behind the cache and the journal, under fault points and
    retries; {!cached} persists one aggregate (a whole sweep or study)
    built from many units, and stores it only when none of them failed.

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

val keyed :
  t ->
  name:string ->
  key:string ->
  encode:('a -> string) ->
  decode:(string -> 'a option) ->
  (unit -> 'a) ->
  'a outcome
(** Runs one task behind the two persistence layers: a cache hit returns
    [From_cache]; otherwise a journal hit (a completed result of the
    interrupted run being resumed) returns [From_journal], counts toward
    [stats.resumed] and is promoted into the cache; otherwise the task is
    computed under the context's fault points (site ["worker"], keyed by
    [name] and attempt number), retry policy and timeout, updating
    {!stats} (in strict mode a final failure raises {!Task_failed}), and
    on success stored in the cache and appended to the journal before
    returning. Keys are expected to come from {!Cache.key}. *)

val map :
  t ->
  name:('a -> string) ->
  f:('a -> 'b) ->
  'a list ->
  ('b, string * Retry.failure) result list
(** Runs [f] on every element as one uncached task each (fault points,
    retries and timeout as in {!keyed}) through {!map_outcome}; the result
    list is in input order with one slot per element, failures carrying
    the task name. *)

val map_outcome : t -> run:('a -> 'b outcome) -> 'a list -> 'b outcome list
(** Pool-parallel outcome map, for callers that build their own per-item
    work from {!keyed} (and therefore need the
    cache/journal provenance of each slot). Output order matches input
    order for every worker count. In non-strict mode an exception escaping
    [run] itself (a bug rather than a task fault) is captured as a
    [Crashed] failure in its slot and counted in [stats.failed]. *)

val cached :
  t ->
  key:string ->
  encode:('a -> string) ->
  decode:(string -> 'a option) ->
  (unit -> 'a) ->
  'a
(** [cached t ~key ~encode ~decode compute] is cache-aside for one
    aggregate entry: a whole sweep or study that [compute] builds from many
    units (each run through {!map} or {!keyed}). Without a cache it is
    [compute ()]; a hit returns the decoded payload; a miss computes and
    stores the payload only when [stats.failed] did not move meanwhile, so
    a later warm run never replays degraded averages as if complete.
    Unlike {!keyed} it adds no fault point, retry or journal record of its
    own: an exception from [compute] propagates and nothing is stored. *)

val oks : ('b, 'e) result list -> 'b list

val failures : ('b, 'e) result list -> 'e list
