(** A/B comparison of two bench runs.

    Takes two parsed {!Rats_runtime.Report.doc} documents — conventionally A = the
    committed baseline, B = the run being judged — and computes per-target
    wall-time deltas and embedded-counter deltas. A target or counter
    present on one side only is reported with the other side blank rather
    than dropped: a disappearing bench target is exactly the kind of
    regression a diff must surface.

    Comparability: wall times from runs of different [scale] (or with
    different cache behaviour) measure different work. {!warnings} renders
    those caveats; both front-ends print them before the numbers. *)

type side = { wall_s : float; cache_hits : int; cache_misses : int }

type target_delta = {
  label : string;
  a : side option;
  b : side option;
  pct : float option;
      (** Wall-time change in percent, [(b − a) / a · 100]; [None] unless
          both sides are present with [a.wall_s > 0]. *)
}

type counter_delta = {
  name : string;
  ca : int option;
  cb : int option;
  delta : int;  (** [cb − ca], absent sides counted as 0. *)
}

val targets : Rats_runtime.Report.doc -> Rats_runtime.Report.doc -> target_delta list
(** A's target order, then targets only B has, in B's order. *)

val counters : ?all:bool -> Rats_runtime.Report.doc -> Rats_runtime.Report.doc -> counter_delta list
(** Counter deltas from the embedded metrics snapshots (empty when
    neither side embeds one). Default: only counters whose value changed;
    [~all:true] keeps the unchanged ones too. Sorted by name. *)

val warnings : Rats_runtime.Report.doc -> Rats_runtime.Report.doc -> string list
(** Comparability caveats: differing [scale] (the committed snapshot may
    be a smoke-scale run — see docs/PERFORMANCE.md), differing schema
    versions, or one side reporting cache hits where the other ran cold. *)

val to_text : ?threshold:float -> Rats_runtime.Report.doc -> Rats_runtime.Report.doc -> string
(** Plain-text report: warnings, per-target wall-time table (Δs and Δ%,
    regressions beyond [threshold] percent marked, default 5.0), then
    changed counters. Ends with a newline. *)

val to_html : ?threshold:float -> Rats_runtime.Report.doc -> Rats_runtime.Report.doc -> string
(** The same content as a standalone HTML page (regressions and
    improvements color-coded). *)
