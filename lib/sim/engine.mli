(** Discrete-event simulation engine for flows and timers.

    This is the repository's stand-in for SimGrid (see DESIGN.md §4): a
    classic event-driven core where network flows share link bandwidth under
    Max-Min fairness (bounded multi-port model) and computations are timers —
    on a homogeneous cluster with dedicated processors a task's duration is
    known once its allocation is, so no processor-sharing model is needed;
    exclusivity is enforced by the driver (the schedule evaluator).

    A flow from [src] to [dst] experiences the route's one-way latency, then
    transfers its payload at the Max-Min fair rate, re-evaluated every time a
    flow starts or finishes, subject to SimGrid's empirical end-to-end cap
    [β' = min(β, Wmax/RTT)]. A flow with [src = dst] is a local memory copy
    and completes instantly — redistribution between identical processor sets
    is free (paper §II-A). *)

type t

val create : Rats_platform.Cluster.t -> t

val cluster : t -> Rats_platform.Cluster.t
val now : t -> float

val at : t -> float -> (t -> unit) -> unit
(** [at eng time f] schedules callback [f] at absolute [time] ≥ [now eng].
    Raises [Invalid_argument] on a past or NaN [time]. Callbacks at equal
    times run in scheduling order. *)

val after : t -> float -> (t -> unit) -> unit
(** [after eng delay f] = [at eng (now eng +. max 0 delay)]. Raises
    [Invalid_argument] on a NaN [delay]. *)

val start_flow :
  t -> src:int -> dst:int -> bytes:float ->
  on_complete:(t -> unit) -> unit
(** Starts a flow now. [on_complete] fires when the last byte arrives;
    flows finishing at the same date complete newest first. Zero (or
    negative) payloads and self-flows complete at [now] (still through the
    event queue, preserving causality). Raises [Invalid_argument] on a NaN
    or infinite [bytes], which would never drain. *)

val run : t -> float
(** Runs until no event or flow remains; returns the final simulated time. *)

val run_until : t -> float -> unit
(** Advances simulated time to exactly the given date, processing everything
    scheduled before it. Raises [Invalid_argument] on a date that is in the
    past, NaN or infinite. *)

(** {2 Observability}

    Per-engine counters, kept as plain fields (an engine lives on one
    domain) and published to the {!Rats_obs.Metrics} registry when a run
    completes ([rats_sim_events_total], [rats_sim_event_queue_depth_max],
    plus the engine's {!Rats_sim.Maxmin.Incremental} solver counters);
    {!run} additionally records a ["sim:run"] trace span. *)
