(** Admission control for the online engine.

    Submission-time (static) validation lives in {!Api.validate}; this
    module decides, {e at arrival in simulated time}, whether an already
    well-formed job may enter the waiting queue. The decision depends only
    on queue occupancy — a deterministic function of the arrival trace — so
    replaying a journal reproduces every accept/reject bit-exactly.

    Policy: a bounded global queue ([queue_limit] jobs waiting or running)
    and a per-tenant bound ([tenant_limit] outstanding jobs), protecting
    tenants from each other the way the packing-constrained schedulers of
    Shafiee & Ghaderi cap per-class occupancy (PAPERS.md). Above a
    [shed_watermark] fraction of the queue limit the engine starts load
    shedding: arrivals are rejected [Overloaded] with a [retry_after]
    backoff hint before the hard limit is reached, keeping headroom for
    tenants already below quota. An optional queue-wait [deadline_s]
    bounds how long an admitted job may wait: the engine drops it with an
    [Expired] event when the deadline passes in simulated time. *)

type policy = {
  queue_limit : int;  (** Maximum jobs waiting in the queue (≥ 1). *)
  tenant_limit : int;
      (** Maximum jobs a tenant may have waiting or running (≥ 1). *)
  shed_watermark : float;
      (** Fraction of [queue_limit] (in (0,1]) past which arrivals are
          shed with [Overloaded]; [1.] disables shedding (the hard
          [queue_full] check fires first). *)
  retry_after_s : float;
      (** Base backoff hint (> 0, simulated seconds) carried by
          [Overloaded] rejections, scaled by the watermark overshoot. *)
  deadline_s : float option;
      (** Queue-wait deadline in simulated seconds; [None] disables
          expiry. *)
}

val default : policy
(** [{ queue_limit = 256; tenant_limit = 64; shed_watermark = 1.;
      retry_after_s = 1.; deadline_s = None }] — identical behavior to
    the pre-shedding service. *)

val make :
  ?shed_watermark:float ->
  ?retry_after_s:float ->
  ?deadline_s:float ->
  queue_limit:int ->
  tenant_limit:int ->
  unit ->
  policy
(** Raises [Invalid_argument] on non-positive limits, a watermark outside
    (0,1], a [retry_after_s] that is not finite and > 0, or a
    [deadline_s] that is not > 0 (NaN included; an infinite deadline never
    fires). Defaults are {!default}'s values. *)

val shed_threshold : policy -> int
(** First queue depth at which arrivals shed,
    [ceil (shed_watermark * queue_limit)] capped at [queue_limit]. *)

type decision = Accept | Reject of Api.reject_reason

val decide :
  policy -> queue_depth:int -> tenant_outstanding:int -> decision
(** [queue_depth] is the waiting-queue depth at arrival;
    [tenant_outstanding] counts the arriving tenant's waiting + running
    jobs. Checked in order: tenant quota (a tenant over quota is rejected
    even when the queue has room), hard queue capacity, then the shed
    watermark. *)
