(** Deterministic trace compiler: {!Profile.t} → sorted arrival trace.

    Each tenant draws from its own SplitMix64 stream seeded
    [profile.seed + 7919 · tenant_index], so the same profile and seed
    compile to the same trace on every machine and adding a tenant never
    perturbs the others. Per job the draw order is fixed — arrival gap,
    application template, sample index (suite templates only), share size
    (uniform shares only) — and must never change: the [poisson] preset's
    bit-compatibility with the historical load generator and the on-disk
    goldens depend on it.

    Traces round-trip through a JSON-lines file ({!save} / {!load}), one
    job object per line, floats rendered with the repo-wide [%.17g]
    convention so replayed traces are bit-exact. *)

type job = {
  at : float;  (** Arrival time, simulated seconds. *)
  tenant : string;
  app : App.t;
  procs : int;  (** Requested share size. *)
  strategy : Rats_core.Rats.strategy;
}

type t = job array
(** Sorted by [(at, tenant)]. *)

val compile : Profile.t -> t
(** Validates the profile, draws every tenant's jobs and merges them into
    arrival order. Bumps the [rats_workload_traces_compiled_total] and
    [rats_workload_jobs_generated_total] counters. *)

val equal : t -> t -> bool

val save : string -> t -> unit
(** Writes the JSON-lines representation to a file (overwrites). *)

val load : string -> (t, string) result
(** Parses a file written by {!save}. Every error, including a value a
    constructor rejects (a shape parameter outside (0,1], say), reads
    [FILE:LINE: …]. *)

val strategy_to_json : Rats_core.Rats.strategy -> Rats_obs.Json.t
(** [{"algo": "hcpa"}], [{"algo": "delta", "mindelta": _, "maxdelta": _}]
    or [{"algo": "timecost", "minrho": _, "packing": _}] — the wire form
    trace files and the service protocol share. *)

val strategy_of_json : Rats_obs.Json.t -> (Rats_core.Rats.strategy, string) result
