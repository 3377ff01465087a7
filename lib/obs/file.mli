(** The file I/O every run artifact goes through.

    Trace files, metrics snapshots, [BENCH_runtime.json], studio pages,
    lint reports and DOT exports are written with {!write_atomic}, so a
    reader (a [studio serve] refresh, a crashed run's post-mortem) sees
    the old file or the new one, never a prefix. The JSON artifacts are
    read back with {!read_json}. The result cache keeps its own writer,
    because it injects faults mid-write; it, the journal and the CLI
    create their directories with {!mkdir_p}. *)

val mkdir_p : string -> unit
(** Creates a directory and any missing parents (mode 0o755); an existing
    directory, [""], ["."] and ["/"] are left alone. Raises
    [Unix.Unix_error] when a level cannot be created. *)

val write_atomic : string -> string -> unit
(** [write_atomic path contents] writes [contents] to a temp file in
    [path]'s directory and renames it onto [path]. If the write or the
    rename fails, the temp file is removed and the exception re-raised. *)

val read_json : string -> (Json.t, string) result
(** Reads and parses a whole JSON file. Every error names [path]. *)
