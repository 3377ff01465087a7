(** Self-contained HTML report of one run.

    Collects whatever artifacts a run left behind — the
    [BENCH_runtime.json] perf report, a [--metrics] snapshot, a [--trace]
    Chrome trace, workload comparison CSVs, pre-rendered SVG figures — and
    renders them into one HTML document with every figure inlined (no
    external fetches; see {!Html.page}). Each input is optional: the
    report renders the sections it has artifacts for and notes the ones it
    does not, so a workload-only run and a full bench sweep use the same
    command.

    [studio report] renders the page once; [studio serve] loads and
    renders it again on every request, with {!served} set, which makes it
    the live monitor of a running sweep. *)

type served = {
  refresh_s : int;  (** [meta refresh] interval baked into the page. *)
  journal : (string * (Rats_runtime.Journal.tail, string) result) option;
      (** A resumable sweep journal's path and its
          {!Rats_runtime.Journal.read_tail}, read for this request. *)
  warnings : string list;
      (** The artifacts that did not load ({!load}), shown as banners: a
          file a running sweep has not written yet, or is rewriting. *)
}
(** What only a served page shows: the auto-refresh, the journal-tail
    section (record count, bytes, a torn-tail banner, the last 20
    records) and the load warnings. *)

type input = {
  title : string;
  bench : Rats_runtime.Report.doc option;
  snapshot : Rats_obs.Snapshot.t option;
      (** Explicit [--metrics] snapshot; when [None], the one embedded in
          [bench] (schema ≥ 2) is used. *)
  trace : Rats_obs.Trace.event list option;
      (** Parsed [--trace] events, rendered as an inline
          {!Rats_viz.Timeline}. *)
  workloads : (string * string) list;
      (** (name, CSV contents) — rendered as tables with the per-arm
          fairness and p99 columns highlighted. *)
  figures : (string * string) list;
      (** (caption, SVG markup) — e.g. Gantt charts from
          [rats_run --svg] — embedded verbatim. *)
  served : served option;  (** [None] for a static report. *)
}

val empty : title:string -> input

val load :
  title:string ->
  ?bench:string ->
  ?metrics:string ->
  ?trace:string ->
  unit ->
  input * string list
(** {!empty} with the given run artifacts loaded: the bench report with
    {!Rats_runtime.Report.load}, the snapshot with
    {!Rats_obs.Snapshot.of_file} and the trace with {!Check.trace}. An
    artifact that does not load is left out, and its error, which names
    the file, comes back as a warning. *)

val render : input -> string
(** The complete HTML document. *)
