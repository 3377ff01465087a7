(** Orchestration: walk a source tree, summarize every [.ml] (pass 1),
    run the whole-program analyses over the summaries (pass 2: call
    graph, D005 taint, A002 staleness), apply suppressions, and render the
    result.

    Paths in findings and allows are root-relative with ['/'] separators;
    traversal is sorted, so two runs over the same tree produce
    byte-identical output (the tool obeys its own D003). *)

type report = {
  root : string;
  files : string list;  (** Every [.ml] scanned, sorted. *)
  findings : Finding.t list;  (** Unsuppressed, sorted; nonempty = fail. *)
  suppressed : Finding.t list;  (** Matched by an allow; kept for audit. *)
  allows : Allow.t list;  (** Every suppression found, used or not. *)
  graph : Callgraph.t;  (** For [--graph]. *)
}

val default_dirs : string list
(** [bench; bin; lib; test] — the dirs [lint.exe] scans by default. *)

val lint_tree : ?dirs:string list -> root:string -> unit -> report
(** Lint every [.ml] under [dirs] (existing ones; default
    {!default_dirs}), or the whole root when [dirs] is [[]]. Directories
    named [_build], [.git] or [lint_fixtures] (the linter's own
    deliberate violations) are never descended into. *)

val render : report -> string
(** Human findings, one per line ({!Finding.to_human}), golden-stable. *)

val render_allows : report -> string
(** The [--list-allows] listing, one {!Allow.to_human} line each. *)

val to_json : report -> Rats_obs.Json.t
