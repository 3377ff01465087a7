(** Moldable data-parallel task model (paper §II-A).

    A task operates on a dataset of [m] double-precision elements
    (4M ≤ m ≤ 121M, where M = 2{^20}) and performs [a·m] floating-point
    operations with [a ∈ \[2^6, 2^9\]] — representative of, e.g., an iterated
    stencil on a √m×√m domain. Parallel execution time follows Amdahl's law
    with a non-parallelizable fraction [α ∈ \[0, 0.25\]]:

    [T(t, p) = T_seq(t) · (α + (1 − α) / p)]

    which is monotonically decreasing in [p]. The {e work} of a task on [p]
    processors is [ω = p · T(t, p)]. The volume of data a task sends to each
    of its successors equals its own dataset ([m] elements = [8m] bytes). *)

type t = private {
  id : int;  (** Index of the task in its DAG; assigned by the builder. *)
  name : string;
  data_elements : float;  (** [m]: dataset size in double elements. *)
  flop : float;  (** Sequential computation amount [a·m] in flop. *)
  alpha : float;  (** Non-parallelizable fraction in [\[0, 1\]]. *)
}

val min_elements : float
(** Lower bound on [m]: 4M elements (paper §II-A). *)

val max_elements : float
(** Upper bound on [m]: 121M elements (1 GiB of doubles minus headroom). *)

val make :
  id:int -> name:string -> data_elements:float -> flop:float -> alpha:float -> t
(** Raises [Invalid_argument] on negative or non-finite [data_elements] or
    [flop], and on an [alpha] outside [0, 1] (NaN included). *)

val virtual_task : id:int -> name:string -> t
(** Zero-cost, zero-data task used as synthetic single entry/exit point. *)

val is_virtual : t -> bool

val random : Rats_util.Rng.t -> id:int -> name:string -> t
(** Draws [m], [a], [α] from the paper's distributions. *)

val data_bytes : t -> float
(** [8 · m]: size of the task's dataset, and of each outgoing transfer. *)

val seq_time : t -> speed:float -> float
(** Sequential execution time on a node of [speed] flop/s. *)

val time : t -> speed:float -> procs:int -> float
(** Amdahl execution time on [procs] ≥ 1 homogeneous processors. *)

val work : t -> speed:float -> procs:int -> float
(** [procs · time t ~speed ~procs]. *)

val relabel : t -> id:int -> t
(** Same task with a new DAG index (used when composing graphs). *)

val pp : Format.formatter -> t -> unit
