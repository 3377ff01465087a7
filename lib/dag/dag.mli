(** Directed acyclic graph of moldable tasks (paper §II-A).

    [G = (N, E)] where nodes are {!Task.t} values and each edge [e_ij] carries
    the amount of data (bytes) task [n_i] sends to [n_j]. Built through the
    {!Builder} interface, which validates acyclicity; most paper algorithms
    additionally assume a single entry and a single exit task, which
    {!ensure_single_entry_exit} establishes by adding virtual tasks when
    needed. A constructed DAG is immutable. *)

type t

type edge = { src : int; dst : int; bytes : float }

(** Incremental construction with validation at [build] time. *)
module Builder : sig
  type dag = t
  type t

  val create : unit -> t

  val add_task : t -> Task.t -> unit
  (** Tasks must be added in id order starting at 0; raises
      [Invalid_argument] otherwise. *)

  val add_edge : t -> src:int -> dst:int -> bytes:float -> unit
  (** Raises [Invalid_argument] on unknown endpoints, negative or
      non-finite (NaN included) weight, self-loop, or duplicate edge. *)

  val build : t -> dag
  (** Computes and stores the {!topological_order}. Raises [Failure] if the
      graph contains a cycle. *)
end

val n_tasks : t -> int
val n_edges : t -> int
val task : t -> int -> Task.t
val tasks : t -> Task.t array
(** Fresh copy of the task array. *)

val succs : t -> int -> (int * float) list
(** [(successor id, edge bytes)] pairs, in edge insertion order. *)

val preds : t -> int -> (int * float) list

val edges : t -> edge list
val edge_bytes : t -> src:int -> dst:int -> float option

val entries : t -> int list
(** Tasks with no predecessor. *)

val exits : t -> int list
(** Tasks with no successor. *)

val ensure_single_entry_exit : t -> t
(** Returns a DAG with exactly one entry and one exit task. When the input
    already satisfies this, it is returned unchanged; otherwise zero-cost
    virtual tasks are appended and connected by zero-byte edges. *)

val topological_order : t -> int array
(** Kahn's algorithm; ties resolved by ascending task id (deterministic).
    The order is computed once by {!Builder.build} and stored in the DAG;
    this returns a fresh copy, and {!depths}, {!bottom_levels} and
    {!top_levels} read the stored order without recomputing it. *)

val depths : t -> int array
(** [depths g].(i) is the length of the longest edge path from an entry to
    task [i]; entries have depth 0. This is the "level" of a task in the
    layered sense of the paper's DAG generator. *)

val level_groups : t -> int list array
(** Tasks grouped by {!depths}, ascending ids within a level. *)

val bottom_levels :
  t -> task_cost:(int -> float) -> edge_cost:(int -> int -> float -> float) ->
  float array
(** [bottom_levels g ~task_cost ~edge_cost].(i) is the classic bottom level:
    the maximum, over paths from [i] to an exit, of the sum of task costs and
    edge costs along the path (including [task_cost i]). [edge_cost src dst
    bytes] lets callers price redistributions. *)

val top_levels :
  t -> task_cost:(int -> float) -> edge_cost:(int -> int -> float -> float) ->
  float array
(** Symmetric: longest cost path from an entry to just {e before} task [i]
    (excluding [task_cost i]). *)

val critical_path :
  t -> task_cost:(int -> float) -> edge_cost:(int -> int -> float -> float) ->
  int list * float
(** The path achieving the maximal end-to-end cost, as a task id list from an
    entry to an exit, together with its length [C∞]. *)

val total_cost : t -> task_cost:(int -> float) -> float
(** Σ over tasks of [task_cost]. *)

val map_tasks : t -> f:(Task.t -> Task.t) -> t
(** Rebuilds the DAG with transformed tasks (ids must be preserved by [f]). *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: #tasks, #edges, #levels, max width. *)

val pp_dot : Format.formatter -> t -> unit
(** Graphviz rendering: nodes labelled with name, dataset size and flop;
    edges labelled with transferred bytes. *)
