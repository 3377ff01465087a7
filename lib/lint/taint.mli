(** Pass 2, step 2: transitive determinism taint (D005).

    Seeds taint at references to raw nondeterminism primitives (the D002
    wall-clock set plus ambient [Random] draws and [Sys.time]), propagates
    it callee-to-caller over the whole-program call graph, and reports a
    finding at the taint frontier of the result-producing scope with the
    full witness path in the message. lib/obs is the trust boundary:
    sources inside it do not seed and edges into it are not followed. *)

val findings : Callgraph.t -> Finding.t list
(** D005 findings at the taint frontier, sorted and deduplicated.
    0-hop wall-clock references already reported by D002 are skipped. *)
