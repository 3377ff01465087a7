(** Workload profiles: who submits what, how fast, under which seed.

    A profile is a named set of {!Tenant}s plus a total job budget; the
    trace compiler ({!Trace.compile}) splits the budget round-robin
    across tenants (tenant [i] of [T] gets [n/T] jobs, plus one of the
    first [n mod T] remainders — the historical [ratsd] load split).

    {2 Profile grammar}

    [of_string] accepts [NAME\[:key=value{,key=value}\]] where [NAME] is
    one of {!presets} and the optional keys override the preset's
    defaults:

    - [jobs=N] — total jobs across tenants, at least 1 (default 120);
    - [tenants=K] — tenant count, at least 1 (default 4);
    - [rate=R] — aggregate arrival rate in jobs per simulated second,
      finite and positive, split evenly across tenants (default 0.05);
    - [seed=S] — trace seed (default 42).

    Example: ["bursty:jobs=240,tenants=6,seed=7"].

    {2 Presets}

    - [poisson] — every tenant an independent Poisson source over the
      small-configuration service mix: the classic open-loop load, and
      the trace [ratsd --selftest] and [rats_client --op load] submit.
    - [bursty] — on/off MMPP tenants: flash crowds against a quiet
      background.
    - [diurnal] — sinusoidal rate curve tenants (day/night).
    - [pipeline] — Poisson tenants submitting pipeline-shaped chains
      only (the Benoit–Rehn-Sonigo–Robert tenant class).
    - [mixed] — tenant classes cycle through poisson / bursty / diurnal
      service-mix tenants and a pipeline tenant: the heterogeneous
      multi-tenant sweep. *)

type t = {
  name : string;
  seed : int;
  n_jobs : int;  (** Total across tenants. *)
  tenants : Tenant.t list;
}

val validate : t -> unit
(** Raises [Invalid_argument] on a non-positive job budget, no tenants,
    duplicate tenant names or an invalid tenant. *)

val jobs_per_tenant : t -> int array
(** The round-robin split of [n_jobs] over the tenants, in order. *)

val service_mix : App.mix
(** The historical service pool: five small suite configurations
    (two layered, one irregular, FFT k=2, Strassen), uniform weights. *)

val pipeline_mix : App.mix
(** Three pipeline chains of 5/8/12 stages over 4/8/16 Mi-element
    datasets, uniform weights. *)

type preset = Poisson | Bursty | Diurnal | Pipeline | Mixed

val presets : (string * preset) list
(** The grammar's preset names, in documentation order. *)

type params = {
  jobs : int;  (** Total jobs across tenants; at least 1. *)
  tenants : int;  (** At least 1. *)
  rate : float;
      (** Aggregate arrival rate, jobs per simulated second, split evenly
          across tenants; finite and positive. *)
  seed : int;
}

val default_params : params
(** 120 jobs from 4 tenants at 0.05 jobs/s, seed 42: the grammar's
    defaults and those of [ratsd --selftest] and [rats_client --op load]. *)

val preset :
  cluster:Rats_platform.Cluster.t -> preset -> params -> (t, string) result
(** The preset with [params]: tenants named ["tenant-<i>"], 3 samples per
    suite application, shares uniform between a quarter of the platform
    and all of it, the naive delta strategy baked in. An [Error] names the
    first parameter out of range. *)

val of_string :
  cluster:Rats_platform.Cluster.t ->
  ?seed:int ->
  string ->
  (t, string) result
(** Parses the profile grammar above into {!preset}. [?seed] overrides
    any seed from the string (the CLI's [--seed] flag). *)
