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

(** {2 Typed field readers} — for decoders. [field k j] is [j]'s member
    [k]; a missing member is [Error "missing field \"k\""], a member of the
    wrong type [Error "field \"k\" is not a number"] (a string, an integer,
    a boolean, an array). *)

val field : string -> t -> (t, string) result
val str_field : string -> t -> (string, string) result
val num_field : string -> t -> (float, string) result
val int_field : string -> t -> (int, string) result
val bool_field : string -> t -> (bool, string) result
val list_field : string -> t -> (t list, string) result
