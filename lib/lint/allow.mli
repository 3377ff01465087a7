(** Explicit, auditable lint suppressions.

    One syntax: a same-line comment [(* lint: allow D002 — reason *)]
    placed on the offending line; several ids may be listed
    ([D001, D003]). The separator before the reason may be [—], [-] or
    [:]. An allow covers exactly its own line.

    A suppression without a justification is itself reported (rule
    [A001]), so [--list-allows] is always a complete audit trail. *)

type t = {
  file : string;
  line : int;  (** Where the suppression is written (1-based). *)
  rules : string list;  (** Rule ids this allow names. *)
  reason : string option;  (** [None] when no justification was written. *)
}

val scan_comments : file:string -> (int * string) list -> t list
(** Finds every [lint: allow] marker in the file's comments, each given
    as its first line (1-based) and its text as the lexer read it. Only
    comments are scanned, so the marker inside a string literal
    suppresses nothing. *)

val covers : t -> rule_id:string -> line:int -> bool
(** The allow names [rule_id] and is written on [line]. *)

val compare : t -> t -> int

val to_human : t -> string
(** [file:line: allow ID[, ID] — reason] (or [(no justification)]). *)

val to_json : t -> Rats_obs.Json.t
