(** Deterministic trace compiler: {!Profile.t} → sorted arrival trace.

    Each tenant draws from its own SplitMix64 stream seeded
    [profile.seed + 7919 · tenant_index], so the same profile and seed
    compile to the same trace on every machine and adding a tenant never
    perturbs the others. Per job the draw order is fixed — arrival gap,
    application template, sample index (suite templates only), share size
    (uniform shares only) — and must never change: the [poisson] preset's
    bit-compatibility with the historical load generator and the on-disk
    goldens depend on it.

    A trace is saved as the service requests it compiles to
    ([Rats_server.Load.save]), not in a format of its own. *)

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
