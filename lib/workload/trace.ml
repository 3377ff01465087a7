module Rng = Rats_util.Rng
module Suite = Rats_daggen.Suite
module Rats = Rats_core.Rats
module Metrics = Rats_obs.Metrics
module Instr = Rats_obs.Instr

type job = {
  at : float;
  tenant : string;
  app : App.t;
  procs : int;
  strategy : Rats.strategy;
}

type t = job array

let tenant_jobs ~seed ~tenant_index ~n_jobs (tenant : Tenant.t) =
  (* Per-tenant stream: adding tenants never perturbs existing ones. The
     per-job draw order (arrival, template, sample, share) is frozen — the
     poisson preset's byte-identity with the historical load generator
     depends on it. *)
  let rng = Rng.create (seed + (7919 * tenant_index)) in
  let state = ref (Arrival.start tenant.Tenant.arrival) in
  Array.init n_jobs (fun _ ->
      let state', at = Arrival.next tenant.Tenant.arrival !state rng in
      state := state';
      let app =
        match App.pick tenant.Tenant.mix rng with
        | App.Suite_spec spec ->
            let sample = Rng.int_range rng 0 (tenant.Tenant.samples - 1) in
            App.Generated { Suite.spec; sample }
        | App.Pipeline p -> App.Chain p
      in
      let procs =
        match tenant.Tenant.share with
        | Tenant.Fixed k -> k
        | Tenant.Uniform { lo; hi } -> Rng.int_range rng lo hi
      in
      { at; tenant = tenant.Tenant.name; app; procs; strategy = tenant.strategy })

let compile (p : Profile.t) =
  Profile.validate p;
  let split = Profile.jobs_per_tenant p in
  let per_tenant =
    List.mapi
      (fun i tenant -> tenant_jobs ~seed:p.Profile.seed ~tenant_index:i ~n_jobs:split.(i) tenant)
      p.Profile.tenants
  in
  let jobs = Array.concat per_tenant in
  Array.sort
    (fun j1 j2 -> compare (j1.at, j1.tenant) (j2.at, j2.tenant))
    jobs;
  Metrics.incr Instr.workload_traces;
  Metrics.add Instr.workload_jobs (Array.length jobs);
  jobs
