(** The rats_lint rule catalogue and its Parsetree checks.

    Detection is syntactic: the engine hands each parsed [.ml] file to
    [check_structure], which walks it with an {!Ast_iterator} and calls
    back for every violation it encounters. Scope filtering
    ({!Rule.applies}) happens in the engine, not here. The catalogue
    (ids, severities, scopes, rationale) is the single source of truth
    shared by the engine, [--rules] output and [docs/LINTING.md]. *)

val catalogue : Rule.t list
(** Every rule, id-sorted: the per-file rules D001–D004, H001–H002, the
    whole-program rules D005 (transitive determinism taint, [Taint]),
    R001/R002 (domain-safety, [Domains]), plus the meta rules A001
    (suppression without justification), A002 (stale suppression) and
    E001 (parse error). *)

val by_id : string -> Rule.t option

val rule : string -> Rule.t
(** Like {!by_id} but raises [Invalid_argument] on an unknown id. *)

val dotted : Longident.t -> string
(** ["Unix.gettimeofday"] from the identifier's longident; [Lapply]
    renders as [""]. *)

val normalize : string -> string
(** Strips a leading ["Stdlib."] so aliased stdlib accesses match. *)

val d002_names : string list
(** The direct wall-clock/entropy sources D002 flags; [Taint] skips a
    0-hop D005 finding when D002 already reports the same call. *)

type finding = Rule.t -> Location.t -> string -> unit
(** Reports a raw violation, before scope filtering and suppression. *)

val check_structure :
  lines:string array -> finding -> Parsetree.structure -> unit
(** [lines] (index 0 = line 1) feeds D003's flows-through-a-sort
    heuristic: a [Sys.readdir] is accepted when the word ["sort"]
    appears on the call's line or within the three lines below it. *)
