(** The pure submit-DAG → get-schedule API of the scheduling service.

    This module is the service's vocabulary, extracted from the batch
    pipeline so the daemon, the client, the online engine and the
    workload studies all speak the same types: a {!request} names a DAG
    (either a deterministic generator configuration of the paper's suite or
    an inline task/edge listing), a platform share, a scheduling strategy
    and a tenant; a {!response} is the resulting placement; {!event}s are
    what the online engine streams back per job. Everything round-trips
    through {!Rats_obs.Json} (the wire format of [ratsd]'s length-prefixed
    protocol, see docs/SERVER.md) with floats rendered exactly, so event
    logs can be diffed bit-for-bit across runs and resumes.

    Scheduling itself ({!plan}, {!place}) is a thin, pure composition of
    the existing pipeline — {!Rats_core.Problem.make},
    {!Rats_core.Hcpa.allocate}, {!Rats_core.Rats.schedule} — over the
    requested processor share. *)

module Suite := Rats_daggen.Suite
module Cluster := Rats_platform.Cluster

(** {2 Requests} *)

type task_def = { data_elements : float; flop : float; alpha : float }
(** One inline moldable task ({!Rats_dag.Task} parameters). *)

type edge_def = { src : int; dst : int; bytes : float }

type job_spec =
  | Generated of Suite.config
      (** A configuration of the paper's application suite — deterministic:
          the DAG is regenerated from its seeded name on every run. *)
  | Inline of { name : string; tasks : task_def array; edges : edge_def list }
      (** An explicit DAG, e.g. read from a [--dag] JSON file. It is passed
          through {!Rats_dag.Dag.ensure_single_entry_exit}. *)

val spec_name : job_spec -> string
(** Stable human-readable identifier ({!Suite.name} or the inline name). *)

val dag_of_spec : job_spec -> Rats_dag.Dag.t
(** Raises [Invalid_argument] (or [Failure] on a cyclic inline graph) when
    the spec is malformed; {!validate} reports the same errors as [Error]. *)

type request = {
  tenant : string;
  job : job_spec;
  strategy : Rats_core.Rats.strategy;
  procs : int;  (** Requested processor share; [0] means the whole platform. *)
}

val validate : n_procs:int -> request -> (int, string) result
(** Static (submission-time) validation: share in range, tenant non-empty,
    strategy parameters in range ({!Rats_core.Rats.check_strategy}), spec
    well-formed. Returns the resolved processor count ([0] resolves to
    [n_procs]). *)

(** {2 Scheduling} *)

val subcluster : Cluster.t -> int -> Cluster.t
(** [subcluster c k] is the flat [k]-processor platform with [c]'s node
    speed and link parameters — the share a job schedules against. When
    [k = n_procs c] it is [c] itself (bit-compatible with the batch
    pipeline). Hierarchical platforms are approximated as flat shares; the
    shared simulation still routes flows through the real topology. *)

type placement = {
  task : int;
  procs : int list;  (** Processor ids, ascending (share-local). *)
  est_start : float;
  est_finish : float;
}

type response = {
  job_name : string;
  strategy : string;
  n_procs : int;  (** Size of the share scheduled against. *)
  est_makespan : float;
  total_work : float;
  placements : placement array;
}

val plan : cluster:Cluster.t -> request -> Rats_core.Schedule.t
(** The pure submit-DAG → get-schedule function on [request.procs]
    processors of [cluster] (which must already be the share, see
    {!subcluster}): DAG generation, problem construction, HCPA allocation
    and the strategy's mapping — the sequence each record unit of the
    batch experiments runs ({!Rats_exp.Runner.run_cells}). *)

val response_of_schedule :
  job_name:string -> strategy:string -> Rats_core.Schedule.t -> response

val place : cluster:Cluster.t -> request -> (response, string) result
(** [ratsd]'s [plan] request: {!validate} against the whole [cluster],
    then {!plan} on the resolved {!subcluster} and
    {!response_of_schedule}. The DAG {!validate} builds is the one
    scheduled, so it is built once. No admission, no queue, no
    simulation. *)

(** {2 Events} *)

type reject_reason =
  | Queue_full
  | Tenant_quota
  | Overloaded of { retry_after : float }
      (** Load shed above the admission watermark; [retry_after] is a
          simulated-seconds backoff hint scaled by how far past the
          watermark the queue is. *)

type event =
  | Submitted of { procs : int; strategy : string; spec : string }
  | Admitted
  | Queued of { depth : int }  (** Waiting-queue depth after enqueue. *)
  | Started of { procs : int list; est_makespan : float }
      (** [procs] are platform-global processor ids of the granted share. *)
  | Redistribution of {
      src_task : int;
      dst_task : int;
      bytes : float;  (** Remote bytes of the redistribution. *)
      started : float;
    }  (** Emitted when the last byte arrives; the stamp is the finish. *)
  | Completed of {
      makespan : float;
      sojourn : float;  (** Completion − arrival (simulated). *)
      waited : float;  (** Start − arrival (simulated). *)
      remote_bytes : float;
      redistributions : int;
      avoided : int;
    }
  | Rejected of { reason : reject_reason }
  | Expired of { waited : float }
      (** Dropped from the queue at its simulated queue-wait deadline,
          having waited [waited] seconds without starting. *)

type stamped = {
  t : float;  (** Simulated time of the event. *)
  seq : int;  (** Global emission order — the deterministic tie-break. *)
  job_id : int;
  tenant : string;
  job_name : string;
  event : event;
}

(** {2 JSON codecs}

    Floats are rendered with ["%.17g"] via {!Rats_obs.Json.to_string}, so
    encoding is injective on the values the engine produces and two event
    logs are equal iff their JSON dumps are byte-identical. *)

val job_spec_of_json : Rats_obs.Json.t -> (job_spec, string) result

val request_to_json : request -> Rats_obs.Json.t
(** The strategy is [{"algo": "hcpa"}],
    [{"algo": "delta", "mindelta": _, "maxdelta": _}] or
    [{"algo": "timecost", "minrho": _, "packing": _}]. *)

val request_of_json : Rats_obs.Json.t -> (request, string) result
(** A value a constructor refuses (a shape [width] outside (0,1], say) is
    an [Error] carrying the constructor's message. *)

val submission_to_json : at:float -> request -> Rats_obs.Json.t
(** [{"at": at, "req": request}]: one timed submission, the record
    [ratsd] journals and a saved workload trace holds on each line. *)

val submission_of_json :
  Rats_obs.Json.t -> (float * request, string) result

val response_to_json : response -> Rats_obs.Json.t

val stamped_to_json : stamped -> Rats_obs.Json.t
val stamped_of_json : Rats_obs.Json.t -> (stamped, string) result

val pp_stamped : Format.formatter -> stamped -> unit
(** One-line human rendering, used by [rats_client]'s pretty printer. *)
