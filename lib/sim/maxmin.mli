(** Max-Min fair bandwidth sharing (the core of the SimGrid contention model,
    paper §IV-A).

    Given a set of links with finite capacities and a set of flows, each
    crossing a subset of the links and optionally bounded by an end-to-end
    rate cap (SimGrid's empirical TCP bandwidth [β' = min(β, Wmax/RTT)]),
    compute the unique Max-Min fair rate vector by progressive filling: all
    unfrozen flow rates grow at the same speed; when a link saturates (or a
    flow hits its cap) the flows it carries freeze; repeat.

    A flow crossing no links and having an infinite cap gets rate
    [infinity].

    {!solve} is the reference implementation — O(rounds × (flows + links))
    per call, used by tests as an oracle. The simulation engine uses
    {!Incremental}, which keeps solver state across flow arrivals and
    departures and re-solves only the connected components a changed flow
    touches (see docs/ALGORITHMS.md for invariants and complexity). *)

type flow = {
  links : int array;  (** Indices of the links the flow crosses. *)
  rate_cap : float;  (** End-to-end bound; [infinity] when unconstrained. *)
}

val solve : n_links:int -> capacity:(int -> float) -> flow array -> float array
(** [solve ~n_links ~capacity flows] returns the fair rate of each flow, in
    the order of [flows]. [capacity l] must be > 0 for every link crossed by
    some flow. Raises [Invalid_argument] on out-of-range link indices or
    non-positive capacities/caps. *)

val utilization :
  n_links:int -> flow array -> rates:float array -> int -> float
(** [utilization ~n_links flows ~rates l] is the total rate crossing link
    [l] — handy for asserting feasibility in tests. *)

(** Incremental max-min solver.

    Holds the live flow set, its link→flow adjacency and its rate vector
    across [add]/[remove] calls; [refresh] brings the rates up to date by
    re-solving exactly the connected components (of the flow–link sharing
    graph) that hold a flow on a link some added or removed flow crosses.
    Every other component keeps its rates untouched. A component is
    gathered by a walk over links that stops once it has reached every
    link some flow crosses, the usual case in the simulator. Once its
    scratch arrays have grown, a refresh allocates nothing.

    The rate vector is a {e pure function of the alive flow set}: any
    sequence of adds and removes reaching the same set yields bit-identical
    rates (each component's water-fill performs the same float operations
    in the same order as {!solve} run on that component alone). Against
    {!solve} on the whole flow set the rates agree to ~1e-9 relative — the
    global algorithm interleaves level increments across components, a
    different float summation order. *)
module Incremental : sig
  type t

  type handle = int
  (** Identifies a live flow; invalid after {!remove}. *)

  val create : n_links:int -> capacity:(int -> float) -> t
  (** A solver for a fixed set of links. [capacity] is sampled once, at
      creation. *)

  val add : t -> links:int array -> rate_cap:float -> handle
  (** Registers a flow and appends it to each of its links' adjacency,
      [O(route)]. Validation matches {!solve}: raises [Invalid_argument]
      on a non-positive cap, out-of-range link or non-positive link
      capacity. A link listed twice counts twice, as in {!solve}. The new
      flow's rate (and its component's) is stale until the next
      {!refresh}. The solver keeps [links]; do not mutate it. *)

  val remove : t -> handle -> unit
  (** Unregisters a flow, swap-removing it from its links' adjacency,
      [O(route)]. Raises [Invalid_argument] on a dead handle. *)

  val refresh : t -> unit
  (** Re-solves, once each, the components holding a flow on a link that a
      flow added or removed since the previous refresh crosses. No-op when
      nothing changed. Raises
      [Invalid_argument "Maxmin.Incremental: unbounded flow"] if a
      component has no finite constraint (cannot happen when every link
      capacity is finite). *)

  val read_rates : t -> handle array -> float array -> int -> unit
  (** [read_rates t handles rates n] sets [rates.(k)] to the rate of flow
      [handles.(k)] as of the last {!refresh}, for every [k < n] ([add] of
      a linkless flow sets its final rate immediately). The rates land in
      the caller's float array, so none is boxed. Raises
      [Invalid_argument] on a handle never returned by {!add}. *)

  val n_flows : t -> int
  (** Live flows currently registered. *)

  val publish : t -> unit
  (** Adds the counts accumulated since the last publish to the metrics
      registry and zeroes them: per refresh, [Instr.maxmin_full_refreshes]
      if it re-solved every linked flow (one crossing a link), else
      [Instr.maxmin_inc_refreshes]; the flows it re-solved
      ([..._dirty_flows]) and the linked flows it left untouched
      ([..._skipped_flows]); plus [..._component_solves],
      [..._walk_stops] (the component walks that stopped on reaching
      every link a flow crosses) and [..._inc_iterations]. Folds this
      solver's largest per-refresh re-solve into the
      [Instr.maxmin_dirty_set_max] gauge. Counts are plain ints in between
      — the hot path never touches an atomic. *)
end
