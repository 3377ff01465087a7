(** The online scheduling engine: admission, queueing, dispatch and shared
    simulation, in simulated time.

    One engine owns one platform and one {!Rats_sim.Engine}. Submissions
    ({!submit}) are timestamped arrivals; {!drain} injects every pending
    arrival into the simulation and runs it dry. At its arrival instant a
    job is validated against the {!Admission} policy, queued
    (FIFO-within-tenant, first-fit backfill — {!Jobq}), scheduled with its
    requested strategy against a processor share carved from the free set,
    and replayed on the shared engine ({!Rats_core.Evaluate.start}), where
    its redistributions contend with every other running job's. Each step
    emits a typed, stamped {!Api.event}.

    {b Determinism.} The event log is a pure function of the arrival trace
    (the multiset of [(at, request)] pairs with their submission ids):
    pending arrivals are sorted by [(at, tenant, id)] before injection,
    same-instant callbacks run in injection order, dispatch grants
    processors in queue order from the sorted free set, and schedule
    computation ([Pool.map]) is deterministic by index regardless of the
    [jobs] setting. Two runs of the same trace — or a journaled run killed
    and resumed ({!resume}) — produce byte-identical event logs.

    {b Clock.} The engine never reads the wall clock itself; the injected
    [clock] is used only to time schedule computation for the
    [rats_server_schedule_seconds] histogram. Simulated time comes from the
    simulation engine alone. *)

type config = {
  cluster : Rats_platform.Cluster.t;
  policy : Admission.policy;
  jobs : int option;
      (** Worker count for batch schedule computation ([Pool.map ?jobs]);
          [None] = pool default. Never affects results. *)
  clock : unit -> float;
      (** Wall clock for scheduling-latency metrics only
          (e.g. {!Rats_obs.Instr.now_s}). *)
  fault : Rats_runtime.Fault.t option;
      (** Arms the engine's injection sites (["engine.step"] before each
          dispatch batch, ["replay.task"] per task finish — both [Delay],
          wall-clock only; the latter through
          {!Rats_core.Evaluate.start}'s [on_task_finish] hook). [None]
          disables injection; delay faults never change the event log. *)
  planner :
    (cluster:Rats_platform.Cluster.t ->
     Api.request ->
     Rats_core.Schedule.t)
    option;
      (** Per-job planning hook, called with the job's granted share
          exactly where {!Api.plan} would run (inside the dispatch batch's
          [Pool.map]). [None] = {!Api.plan} with the request's own
          strategy. Study runners use it to pin every job of an arm to one
          scheduler (including non-RATS planners such as the
          packing-constrained greedy baseline) without rewriting the
          trace. Must be deterministic for the event-log guarantee to
          hold. *)
}

val default_config : Rats_platform.Cluster.t -> config
(** {!Admission.default}, pool-default [jobs], {!Rats_obs.Instr.now_s},
    no fault injection, no planner override. *)

type t

val create : ?journal:Rats_runtime.Journal.t -> config -> t
(** A fresh engine at simulated time 0 with every processor free. When
    [journal] is given, every accepted submission is appended to it before
    {!submit} returns (the engine does not close the journal). *)

val cluster : t -> Rats_platform.Cluster.t
val now : t -> float
(** Current simulated time. *)

val free_procs : t -> int
val queue_depth : t -> int

val submit : t -> ?at:float -> Api.request -> (int, string) result
(** Registers an arrival at simulated time [at] (clamped up to {!now};
    default {!now}) and returns its submission id. Static validation
    ({!Api.validate}) happens here, synchronously — a malformed request is
    an [Error] and leaves no trace in journal or event log. Admission
    (capacity) is decided later, at the arrival instant inside the
    simulation, so rejections are events and replay identically on resume.
    The resolved arrival time is journaled, so resumed runs see the same
    trace. *)

val resume : t -> (int, string) result
(** Re-registers the submissions recorded in the engine's journal (in
    submission-id order, without re-journaling them) and returns how many
    were loaded. Call on a fresh engine opened with [resume:true], before
    any new {!submit}. A record that does not decode
    ({!Api.submission_of_json}) or no longer passes {!Api.validate} stops
    the resume with an [Error] naming its key, e.g.
    ["journal record sub-00000003 no longer valid: minrho outside (0, 1]"];
    the engine is then only partly loaded and should be discarded. *)

val drain : t -> float
(** Sorts pending arrivals by [(at, tenant, id)], injects them and runs the
    simulation until nothing remains — every admitted job has completed.
    Returns the final simulated time. May be called repeatedly; new
    submissions between drains arrive no earlier than the previous drain's
    end. *)

val subscribe : t -> (Api.stamped -> unit) -> unit
(** Registers an observer called synchronously at every event emission, in
    subscription order, after the event is logged. *)

val events : t -> Api.stamped list
(** Everything emitted so far, in emission (= [seq]) order. *)

(** {2 Service-level statistics}

    The engine keeps one ledger per tenant, opened at the tenant's first
    arrival and updated at every [submitted], [rejected], [completed] and
    [expired] event. It is the only count of outcomes: admission reads a
    tenant's outstanding jobs from it, and every total below is a sum over
    it, so totals, per-tenant rows and the event log agree by
    construction. *)

type stats = {
  submitted : int;
  admitted : int;
  rejected : int;
  completed : int;
  expired : int;
      (** Jobs dropped at their queue-wait deadline
          ([policy.deadline_s]). *)
  queue_depth_max : int;
  busy_time : float;
      (** Processor-seconds granted to completed jobs (grant size × hold
          time). *)
  end_time : float;  (** Simulated time of the last drain's end. *)
  utilization : float;
      (** [busy_time / (n_procs × end_time)]; 0 before any drain. *)
  sojourns : float array;
      (** Per completed job: each tenant's sojourns in completion order,
          tenants in {!field-tenants} order. *)
  tenants : Rats_workload.Report.per_tenant list;
      (** One row per tenant that has arrived, in first-arrival order. *)
}

val stats : t -> stats
