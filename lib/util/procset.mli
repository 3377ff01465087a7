(** Sets of processor indices.

    A processor set is the unit of allocation in mixed-parallel scheduling: a
    moldable task executes on exactly one set. Represented as a sorted array
    of distinct non-negative processor indices, which makes the operations the
    schedulers need — cardinality, equality, rank lookup for 1-D block
    distributions, subset tests — cheap and allocation-light. Values are
    immutable by convention: no function in this interface mutates its
    argument. *)

type t

val empty : t

val of_list : int list -> t
(** [of_list l] builds a set from [l] (sorted, deduplicated). *)

val of_array : int array -> t
(** [of_array a] builds a set from [a] (sorted, deduplicated; [a] is not
    modified). Raises [Invalid_argument] on negative indices. *)

val range : int -> int -> t
(** [range lo n] is the set [{lo, lo+1, ..., lo+n-1}]. [n] may be 0. *)

val size : t -> int
val is_empty : t -> bool
val mem : int -> t -> bool
val nth : t -> int -> int
(** [nth s r] is the processor holding block rank [r]; raises
    [Invalid_argument] if [r] is out of bounds. *)

val rank : int -> t -> int option
(** [rank p s] is the block rank of processor [p] in [s], if present. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val subset : t -> t -> bool
val inter : t -> t -> t
val union : t -> t -> t
val diff : t -> t -> t
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (int -> unit) -> t -> unit
val to_list : t -> int list
val to_array : t -> int array
(** Fresh copy; safe to mutate. *)

val first_n : t -> int -> t
(** [first_n s n] keeps the [n] smallest members. Requires [n <= size s]. *)

val pp : Format.formatter -> t -> unit
