(** Span-based tracing with per-domain buffers and Chrome trace-event
    export.

    A tracer collects {e spans} (named intervals, possibly nested) and
    {e instant events}. Each domain records into its own buffer — recording
    is lock-free; a mutex is taken only once per domain lifetime, to
    register the buffer — and the buffers are merged when the trace is
    flushed. The export format is Chrome trace-event JSON, openable in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}; span
    nesting is reconstructed by the viewer from timestamps within a thread
    lane, so domains appear as separate tracks.

    {b Nil sink.} Instrumentation points go through the module-level
    {!span} / {!instant} functions, which consult a process-global tracer
    slot. With no tracer {!install}ed they reduce to one atomic load and a
    branch — the argument closure is never evaluated, no clock is read,
    nothing allocates per event — so permanently-instrumented hot paths
    cost effectively nothing in an untraced run.

    {b Clock.} Timestamps come from an injectable monotonic microsecond
    clock so tests can drive time deterministically; the default reads the
    system monotonic clock. *)

type clock = unit -> float
(** Monotonic time in microseconds. Only differences are meaningful. *)

val default_clock : clock

(** One recorded event. [ts] and [dur] are microseconds relative to the
    tracer's creation instant; [dur = 0.] for instants. [tid] is the
    recording domain's id. *)
type event = {
  name : string;
  cat : string;
  phase : [ `Span | `Instant ];
  ts : float;
  dur : float;
  tid : int;
  args : (string * string) list;
}

type t

val create : ?clock:clock -> unit -> t
(** A fresh, empty tracer. Its origin (timestamp zero) is [clock ()] at
    creation time. *)

(** {2 Recording on an explicit tracer} *)

val span_on :
  t ->
  ?cat:string ->
  ?args:(unit -> (string * string) list) ->
  string ->
  (unit -> 'a) ->
  'a
(** [span_on t name f] runs [f] and records a span covering its execution,
    including when [f] raises. [args] is evaluated after [f] returns (so
    it can report results); default category is ["app"]. *)

val instant_on :
  t ->
  ?cat:string ->
  ?args:(unit -> (string * string) list) ->
  string ->
  unit

(** {2 The process-global tracer} *)

val install : t -> unit
(** Makes [t] the tracer that {!span} and {!instant} record into,
    replacing any previous one. *)

val uninstall : unit -> unit
val installed : unit -> t option

val is_enabled : unit -> bool
(** [true] iff a tracer is installed. For guarding expensive trace-only
    preparation that the [args] closure alone cannot defer. *)

val span :
  ?cat:string ->
  ?args:(unit -> (string * string) list) ->
  string ->
  (unit -> 'a) ->
  'a
(** {!span_on} against the installed tracer; just [f ()] when none is. *)

val instant :
  ?cat:string -> ?args:(unit -> (string * string) list) -> string -> unit

(** {2 Flushing} *)

val events : t -> event list
(** Merges every domain buffer and returns all events sorted by [ts]
    (ties: longer spans first, so parents precede their children). Safe to
    call while other domains are still recording — it snapshots what has
    been recorded so far. *)

val to_chrome_json : t -> string
(** The flushed trace as a Chrome trace-event document:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}]. *)

val write_chrome : t -> string -> unit
(** Writes {!to_chrome_json} to a file (atomic temp-file + rename). *)

(** {2 Parse-back} *)

val events_of_json : Json.t -> (event list, string) result
(** The inverse of {!to_chrome_json}: the events of a parsed Chrome
    trace-event document, in document order. Fails with a diagnostic
    naming the first malformed event — the trace half of [studio check],
    shared with [studio report], which re-renders the trace as a
    {!Rats_viz.Timeline}. *)
