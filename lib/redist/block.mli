(** One-dimensional block data distribution (paper §II-A).

    An amount of data distributed over [r] ranks gives rank [i] the interval
    [\[i·m/r, (i+1)·m/r)]. The communication matrix of a redistribution
    between a [p]-rank and a [q]-rank block distribution of the same data is
    obtained from the pairwise interval overlaps; amounts are computed with
    integer arithmetic in units of [m/(p·q)] so they are exact (the paper's
    Table I example — 10 units, 4 senders, 5 receivers — is reproduced
    bit-for-bit). *)

val interval : amount:float -> ranks:int -> int -> float * float
(** [interval ~amount ~ranks i] is rank [i]'s half-open interval. Raises
    [Invalid_argument] if [i] is out of range or [ranks <= 0]. *)

val overlap : amount:float -> senders:int -> receivers:int -> int -> int -> float
(** [overlap ~amount ~senders ~receivers i j] is the amount sender rank [i]
    must ship to receiver rank [j]. *)

val comm_matrix :
  amount:float -> senders:int -> receivers:int -> (int * int * float) list
(** Sparse matrix of the non-zero [(sender rank, receiver rank, amount)]
    entries, ordered by sender then receiver rank. The block structure makes
    it banded: at most [senders + receivers − 1] entries. *)

val iter_comm : senders:int -> receivers:int -> (int -> int -> int -> unit) -> unit
(** [iter_comm ~senders ~receivers f] calls [f i j units] on every entry of
    {!comm_matrix}, in the same order, without building the list: the
    entry's amount is [unit_amount ~amount ~senders ~receivers *. float_of_int units],
    bit for bit. *)

val unit_amount : amount:float -> senders:int -> receivers:int -> float
(** [amount / (senders · receivers)], the amount one overlap unit carries. *)

val row_sums : senders:int -> (int * int * float) list -> float array
(** Amount leaving each sender rank. *)

val col_sums : receivers:int -> (int * int * float) list -> float array
(** Amount entering each receiver rank. *)
