(** Unit constants and conversions shared across the model.

    Conventions used throughout the repository:
    - data sizes are in {b bytes} ([float]),
    - compute amounts are in {b flop} ([float]),
    - rates are in {b bytes/s} and {b flop/s},
    - times are in {b seconds}. *)

val mega : float
(** 2{^20}, binary mega as used by the paper's "4M–121M elements". *)

val giga : float
(** 10{^9}, decimal giga for GFlop/s and Gb/s network rates. *)

val bytes_per_element : float
(** Double-precision element size: 8 bytes. *)

val gflops : float -> float
(** [gflops x] is [x] GFlop/s in flop/s. *)

val gbit_per_s : float -> float
(** [gbit_per_s x] is [x] Gb/s in bytes/s. *)

val microseconds : float -> float
(** [microseconds x] is [x] µs in seconds. *)

val pp_time : Format.formatter -> float -> unit
(** Human-readable duration (µs/ms/s). *)

val pp_bytes : Format.formatter -> float -> unit
(** Human-readable size (B/KiB/MiB/GiB). *)
