(** Minimal dependency-free JSON tree, printer and parser.

    The observability layer needs to both emit JSON (Chrome trace-event
    files, metrics snapshots) and read it back ([studio check],
    [studio report] and the tests). A tiny recursive-descent parser keeps
    the repo free of a yojson dependency; it accepts standard JSON (RFC
    8259) with the usual numeric and string escapes. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering. Numbers print via ["%.17g"] trimmed of a trailing
    [".0"]-less exponent noise, so integers round-trip as integers. *)

val parse : string -> (t, string) result
(** Parses a complete JSON document; trailing whitespace is allowed,
    trailing garbage is an error. Errors carry a byte offset. *)

(** {2 Accessors} — all total, returning [None] on shape mismatch. *)

val member : string -> t -> t option
val to_float : t -> float option
val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option
