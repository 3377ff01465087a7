(** Cache payloads and study keys of the experiment layer.

    Every result [lib/exp] persists is a text payload in one small grammar.
    Floats render as ["%h"] hex literals, which round-trip through
    [float_of_string] bit-exactly, so a warm replay is indistinguishable
    from fresh computation. There are three forms:

    - a {e tuple}: space-separated floats, ["%h %h …"], optionally led by a
      ["%b"] flag;
    - a {e row}: a label, then tab-separated floats, ["label\t%h …"]; the
      label may contain spaces but no tab or newline;
    - a {e list}: tuples or rows joined by ['\n'], decoded all-or-nothing.

    Decoders return [None] on any malformed field and leave the arity check
    to the caller's pattern match. This is an on-disk format: a change to
    how any value renders orphans every entry earlier builds stored. *)

val floats : float list -> string
(** A tuple: ["%h %h …"]. *)

val to_floats : string -> float list option

val flagged : bool -> float list -> string
(** A flagged tuple: ["%b %h …"]. *)

val to_flagged : string -> (bool * float list) option

val row : string -> float list -> string
(** [row label values] is ["label\t%h\t%h …"]. *)

val to_row : string -> (string * float list) option

val lines : ('a -> string) -> 'a list -> string
(** One encoded item per line. *)

val to_lines : (string -> 'a option) -> string -> 'a list option
(** [None] unless every line decodes. *)

val key :
  string ->
  ?extra:string list ->
  Rats_platform.Cluster.t ->
  Rats_daggen.Suite.config list ->
  string
(** [key name ~extra cluster configs] keys a study over a configuration
    set: {!Rats_runtime.Cache.key} of [name], the cluster signature, the
    [extra] parts (default none) and every configuration name, in that
    order. *)
