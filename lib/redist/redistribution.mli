(** Redistribution plans and cost estimates.

    A redistribution moves a task's output (1-D block distributed over the
    predecessor's processor set) to the block distribution over the
    successor's set. {!plan} produces the point-to-point transfers;
    {!estimate} prices a plan under the bounded multi-port model in
    isolation — the analytic estimate list schedulers use at mapping time
    (actual times come from replaying plans in the simulation engine, where
    concurrent redistributions contend). When the two processor sets are
    equal, the plan is entirely local and costs zero (paper §II-A). *)

type transfer = { src : int; dst : int; bytes : float }
(** One point-to-point message between physical processors. [src = dst]
    means a local copy (free). *)

val plan :
  ?optimize_placement:bool ->
  sender:Rats_util.Procset.t ->
  receiver:Rats_util.Procset.t ->
  bytes:float ->
  unit ->
  transfer list
(** Transfers realizing the redistribution of [bytes] of data, using the
    self-communication-maximizing receiver placement ([optimize_placement],
    default true; disable it to measure the ablation — receiver ranks then
    follow ascending processor order). Empty when [bytes <= 0]. Raises
    [Invalid_argument] on empty processor sets. *)

val remote_bytes : transfer list -> float
(** Total bytes actually crossing the network. *)

val local_bytes : transfer list -> float
(** Total bytes kept on-processor. *)

val estimate : Rats_platform.Cluster.t -> transfer list -> float
(** Completion time of the plan executed alone on the cluster: every remote
    transfer starts at once; each link (node NICs, cabinet uplinks) serves
    its aggregate load at full bandwidth; the estimate is the maximum
    per-link drain time plus the largest one-way route latency. This is
    exact for a single bottleneck link and a lower bound otherwise — the
    right fidelity for a list scheduler's finish-time estimates. 0 for an
    all-local plan. *)

val estimate_between :
  Rats_platform.Cluster.t ->
  sender:Rats_util.Procset.t ->
  receiver:Rats_util.Procset.t ->
  bytes:float ->
  float
(** Exactly the float [estimate cluster (plan ~sender ~receiver ~bytes ())]
    returns (0 when the sets are equal or [bytes <= 0]), computed without
    building the plan: one load accumulator per link a remote transfer
    crosses, filled in plan order, and the receiver placement computed only
    when the sets share a processor. Raises [Invalid_argument] when exactly
    one set is empty and [bytes > 0]. *)
