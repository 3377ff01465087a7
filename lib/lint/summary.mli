(** Pass 1 of the whole-program analysis: a self-contained per-file
    summary.

    A summary carries the file's per-file findings (D/H/R rules, already
    scope-filtered) and allows, plus the module facts pass 2 builds the
    cross-module call graph from: top-level value definitions with the
    qualified identifiers each references, and top-level
    [module M = Path] aliases. Summaries are pure functions of the source
    text. *)

type def = {
  d_name : string;
      (** Dotted for values in nested modules: ["Incremental.add"]. *)
  d_line : int;
  d_col : int;
  d_refs : (string * int) list;
      (** Qualified identifiers the body references, with the line of
          each first occurrence; sorted, deduplicated. *)
}

type t = {
  s_file : string;  (** Root-relative, ['/']-separated. *)
  s_dir : string;
  s_module : string;  (** Capitalized basename: ["Maxmin"]. *)
  s_aliases : (string * string) list;
  s_defs : def list;
  s_findings : Finding.t list;
  s_allows : Allow.t list;
}

val scan : file:string -> string -> t
(** [scan ~file src] parses and summarizes one file. A file that does not
    parse yields an [E001] finding, comment-scanned allows, and no
    definitions. *)
