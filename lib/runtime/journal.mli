(** Write-ahead journal of completed results.

    The {!Cache} makes re-running cheap, but it can be disabled
    ([RATS_CACHE=off]) and says nothing about {e which} work a particular
    run completed. The journal does: every computed (key, payload) pair is
    appended — one buffered write, then [fsync] — before the sweep moves
    on, so a run killed at any instant leaves a journal whose well-formed
    prefix is exactly the set of configurations it finished. Restarting
    with [resume:true] loads that prefix and the runner replays the stored
    payloads, re-executing only the missing work; the final results are
    bit-identical to an uninterrupted run because payloads round-trip
    exactly (the experiment layer encodes floats as ["%h"]).

    Keys are content-addressed (the caller passes {!Cache.key} digests), so
    entries from a run with different parameters, configurations or code
    version simply never match — resuming against a stale journal is safe,
    merely useless.

    Layout: one file per run name under [bench_results/.journal/]; a header
    line, then length-prefixed, checksummed records (payloads may contain
    newlines and arbitrary bytes). A torn final record — the crash case —
    is detected by checksum/length and truncated away on open. [append] is
    mutex-guarded: {!Pool} workers share one journal. *)

type t

val default_dir : string
(** ["bench_results/.journal"]. *)

val path : t -> string

val open_ : ?dir:string -> ?fault:Fault.t -> name:string -> resume:bool -> unit -> t
(** Open (creating directories as needed) the journal named [name]
    (sanitized into a filename). With [resume:false] any existing journal
    for that name is discarded — the run starts from nothing. With
    [resume:true] the well-formed prefix of the existing file is loaded
    (see {!find}/{!loaded}) and appends continue after it.

    [fault] arms the ["journal.append"] injection site on this journal:
    a [Delay] stalls an append (outside the lock), a [Crash] turns it
    into an I/O failure, exercising the disable-on-error degraded path
    below without a real full disk. *)

val find : t -> string -> string option
(** Payload recorded under the key, by the run being resumed or by this
    run's own appends (the latest write wins). *)

val resumes : t -> string -> bool
(** [true] when the payload {!find} returns for the key was loaded at open
    time — written by the run being resumed — and this run has not
    replaced it since. *)

val loaded : t -> int
(** Number of records replayed from a previous run at open time. *)

val appended : t -> int
(** Number of records appended by this run. *)

val append : t -> key:string -> string -> unit
(** Durably record one completed result (atomic append + fsync). I/O errors
    are reported once on stderr and further appends disabled — losing the
    journal degrades resumability, never the run. *)

val writable : t -> bool
(** [false] once an append failure (real or injected) has disabled the
    journal, or after {!close} — the run continues but will not resume. *)

val close : t -> unit

(** {2 Read-only tailing}

    A monitor (the studio's [serve] mode) wants to watch a journal that a
    {e different} process is appending to. {!open_} is the wrong tool — it
    opens for writing and truncates torn tails; {!read_tail} does neither:
    it parses whatever well-formed prefix exists right now and reports a
    torn or still-being-written final record instead of repairing it. *)

type tail = {
  records : (string * string) list;
      (** (key, payload) records of the well-formed prefix, in append
          order (duplicate keys are kept — unlike {!find}, which sees the
          last write). *)
  torn : bool;
      (** The file ends in a damaged or incomplete record. Transient while
          the writer is mid-append; permanent after a crash. *)
  bytes : int;  (** Current file size. *)
  good_bytes : int;  (** Offset where the well-formed prefix ends. *)
}

val read_tail : string -> (tail, string) result
(** [read_tail path] parses the journal file at [path] (a {!path}, not a
    name). Errors: unreadable file, or a header that is not a RATS
    journal's. Safe to call concurrently with a live appender. *)
