(** Pass 2, step 1: the cross-module call graph over file summaries.

    Nodes are [(file, def name)] pairs; edges come from resolving each
    definition's qualified references against the scanned tree. Resolution
    is deterministic and heuristic (documented in the implementation):
    top-level aliases, same-file definitions, [Rats_*] public library
    names, same-directory siblings, then a tree-unique module basename.
    Unresolved names (Stdlib, Unix, ...) are external — [Taint] matches
    them against its source list but they never become edges. *)

type node = string * string
(** [(root-relative file, def name)]. *)

type t

val build : Summary.t list -> t

val summary : t -> string -> Summary.t option

val display : t -> node -> string
(** ["Maxmin.solve"] — module-qualified name for findings and DOT. *)

val succs : t -> string -> Summary.def -> (node * int) list
(** Resolved call edges of one definition with the referencing line,
    sorted and deduplicated. *)

val fold_defs : t -> ('a -> string -> Summary.def -> 'a) -> 'a -> 'a
(** Fold over every definition, files in sorted order. *)

val to_dot : t -> string
(** Module-level DOT projection (one node per file, library-qualified
    labels), byte-stable across runs. *)
