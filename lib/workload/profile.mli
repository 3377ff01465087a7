(** Workload profiles: who submits what, how fast, under which seed.

    A profile is a named set of {!Tenant}s plus a total job budget; the
    trace compiler ({!Trace.compile}) splits the budget round-robin
    across tenants (tenant [i] of [T] gets [n/T] jobs, plus one of the
    first [n mod T] remainders — the historical [ratsd] load split).

    {2 Profile grammar}

    {!of_string}, the one constructor, accepts
    [NAME\[:key=value{,key=value}\]] where [NAME] is one of the presets
    below and the optional keys override the preset's defaults:

    - [jobs=N] — total jobs across tenants, at least 1 (default 120);
    - [tenants=K] — tenant count, at least 1 (default 4);
    - [rate=R] — aggregate arrival rate in jobs per simulated second,
      finite and positive, split evenly across tenants (default 0.05);
    - [seed=S] — trace seed (default 42).

    Example: ["bursty:jobs=240,tenants=6,seed=7"]. This grammar is the
    one way to name a load trace: [workload --profile],
    [ratsd --selftest --profile] and [rats_client --op load --profile]
    all take it.

    {2 Presets}

    Every preset names its tenants ["tenant-<i>"], draws 3 samples per
    suite application and shares uniform between a quarter of the
    platform and all of it, and bakes in the naive delta strategy.

    - [poisson] — every tenant an independent Poisson source over the
      small-configuration service mix: the classic open-loop load, and
      (with its defaults) the trace [ratsd --selftest] and
      [rats_client --op load] submit.
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

val of_string :
  cluster:Rats_platform.Cluster.t ->
  ?seed:int ->
  string ->
  (t, string) result
(** Parses the profile grammar above. An [Error] names the first unknown
    preset, unknown key, unparsable value or value out of range (e.g.
    ["rate must be finite and > 0, got nan"]). [?seed] overrides any seed
    from the string, for callers that sweep seeds over one spec. *)
