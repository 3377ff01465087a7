(** Ground-truth schedule evaluation by discrete-event simulation.

    Replays a schedule in the {!Rats_sim.Engine}: tasks execute on their
    assigned processor sets, and every redistribution becomes the
    point-to-point flows of its {!Rats_redist.Redistribution.plan}, released
    when the producing task finishes and contending for NIC and uplink
    bandwidth under Max-Min fairness. The replay is work-conserving, like
    the mixed-parallel runtimes the paper targets (TGrid): a task starts as
    soon as {e all} its input redistributions have arrived and {e all} its
    assigned processors are free (acquired atomically — no partial holds, no
    deadlock); a task whose data is late never blocks a later-ready task
    assigned to the same processors. Each processor offers itself to its
    assigned tasks in the mapper's estimated order.

    This is where the effects the mapper's analytic estimates ignore —
    network contention between concurrent redistributions — show up, exactly
    as in the paper's SimGrid experiments (§IV).

    {!run} replays one schedule alone on a private engine from time 0.
    {!start} launches the same state machine on a {e shared} engine from
    its current time, so several schedules' redistributions contend with
    each other (the online service, [Rats_server.Engine]):

    - the schedule's processor ids are share-local ([0 .. k-1]); local
      processor [q] is the [q]-th element of [grant], and only flow
      endpoints are translated, so flows cross the real topology (and, on
      hierarchical clusters, the real uplinks);
    - [starts], [finishes] and the span dates are absolute engine times,
      while [makespan] is [now − start time];
    - progress is reported through callbacks, because completion happens
      inside the shared event loop. *)

type span = {
  src_task : int;
  dst_task : int;
  span_start : float;  (** Producing task's finish date. *)
  span_finish : float;  (** Arrival of the last byte. *)
  span_bytes : float;  (** Remote bytes of this redistribution. *)
}
(** One paid (partially remote) redistribution, as observed in simulation. *)

type result = {
  makespan : float;  (** Simulated completion time of the exit task. *)
  starts : float array;  (** Per-task simulated start dates. *)
  finishes : float array;
  remote_bytes : float;  (** Bytes that crossed the network. *)
  local_bytes : float;  (** Bytes kept on-processor by redistributions. *)
  redistributions : int;  (** Data-carrying edges whose plan had remote flows. *)
  avoided : int;  (** Data-carrying edges fully served locally. *)
  spans : span list;  (** Paid redistributions in chronological order. *)
}

val run :
  ?work_conserving:bool -> ?optimize_placement:bool -> Schedule.t -> result
(** Both flags default to true. [work_conserving = false] makes each
    processor serve its assigned tasks strictly in the mapper's order — a
    late input then blocks everything queued behind it (the replay
    discipline ablation). [optimize_placement = false] makes redistribution
    plans use the natural ascending receiver placement instead of the
    self-communication-maximizing one (the placement ablation). *)

val start :
  Rats_sim.Engine.t ->
  grant:Rats_util.Procset.t ->
  ?work_conserving:bool ->
  ?optimize_placement:bool ->
  ?on_task_finish:(int -> unit) ->
  ?on_redistribution:(span -> unit) ->
  on_complete:(result -> unit) ->
  Schedule.t ->
  unit
(** Launches the schedule on the engine at its current time; the first
    tasks start from an event queued at that instant, so replays started
    together begin in call order. [grant] must have exactly the schedule's
    processor count (raises [Invalid_argument] otherwise). The flags are
    {!run}'s. [on_task_finish task] fires at each task's finish, before the
    task's processors are released. [on_redistribution] fires when the last
    byte of a paid redistribution arrives (the engine's current time is
    [span_finish]), before its consumer may start. [on_complete] fires once,
    when the last task finishes — the caller releases the grant there. The
    engine is not run: the caller drives it. *)
