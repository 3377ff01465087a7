open Parsetree

(* Pass 1 of the whole-program analysis: one self-contained summary per
   source file. It carries everything pass 2 needs — the per-file findings
   and allows (so suppression and A001/A002 run without re-parsing), plus
   the module facts the call-graph is built from: top-level value
   definitions, the qualified identifiers each one references, and
   [module M = Path] aliases. *)

type def = {
  d_name : string;  (** possibly dotted for nested modules, e.g. ["Incremental.add"] *)
  d_line : int;
  d_col : int;
  d_refs : (string * int) list;  (** qualified idents referenced, with line *)
}

type t = {
  s_file : string;  (** root-relative, ['/']-separated *)
  s_dir : string;  (** [Filename.dirname s_file] *)
  s_module : string;  (** capitalized basename, e.g. ["Maxmin"] *)
  s_aliases : (string * string) list;  (** local module name -> dotted path *)
  s_defs : def list;
  s_findings : Finding.t list;  (** per-file rules, scope-filtered *)
  s_allows : Allow.t list;
}

let modname_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

let split_lines src = Array.of_list (String.split_on_char '\n' src)

let finding_of rule (loc : Location.t) message ~file =
  {
    Finding.rule_id = rule.Rule.id;
    severity = rule.Rule.severity;
    file;
    line = loc.loc_start.pos_lnum;
    col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
    message;
  }

(* The parse, and the comments the lexer collected during it, each with
   its first line: allows are read from those comments alone. A file that
   does not parse yields the comments lexed before the error. *)
let parse_structure ~file src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  let parsed =
    match Parse.implementation lexbuf with
    | structure -> Ok structure
    | exception Syntaxerr.Error err ->
        Error (Syntaxerr.location_of_error err, "syntax error")
    | exception Lexer.Error (_, loc) -> Error (loc, "lexer error")
  in
  let comments =
    List.map
      (fun (text, (loc : Location.t)) -> (loc.loc_start.pos_lnum, text))
      (Lexer.comments ())
  in
  (parsed, comments)

(* --- definition / reference extraction --------------------------------- *)

let refs_of_expr e =
  let acc = ref [] in
  let expr_hook (it : Ast_iterator.iterator) e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } ->
        let name = Rules.dotted txt in
        if name <> "" then acc := (name, loc.Location.loc_start.pos_lnum) :: !acc
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr = expr_hook } in
  it.expr it e;
  List.sort_uniq compare !acc

let rec pat_names p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_alias (inner, { txt; _ }) -> txt :: pat_names inner
  | Ppat_tuple ps | Ppat_array ps -> List.concat_map pat_names ps
  | Ppat_construct (_, Some (_, inner)) | Ppat_variant (_, Some inner) ->
      pat_names inner
  | Ppat_record (fields, _) -> List.concat_map (fun (_, p) -> pat_names p) fields
  | Ppat_constraint (inner, _) | Ppat_lazy inner | Ppat_open (_, inner) ->
      pat_names inner
  | _ -> []

let defs_and_aliases structure =
  let defs = ref [] and aliases = ref [] in
  let add_def ~prefix name (loc : Location.t) refs =
    let d_name = if prefix = "" then name else prefix ^ "." ^ name in
    defs :=
      {
        d_name;
        d_line = loc.loc_start.pos_lnum;
        d_col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
        d_refs = refs;
      }
      :: !defs
  in
  let rec walk_items ~prefix items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                let refs = refs_of_expr vb.pvb_expr in
                let loc = vb.pvb_pat.ppat_loc in
                match pat_names vb.pvb_pat with
                | [] ->
                    (* [let () = ...] initialization code still calls
                       things; give it a stable synthetic name. *)
                    add_def ~prefix
                      (Printf.sprintf "_init_%d" loc.loc_start.pos_lnum)
                      loc refs
                | names -> List.iter (fun n -> add_def ~prefix n loc refs) names)
              vbs
        | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } -> (
            match pmb_expr.pmod_desc with
            | Pmod_structure items ->
                walk_items
                  ~prefix:(if prefix = "" then name else prefix ^ "." ^ name)
                  items
            | Pmod_ident { txt; _ } ->
                let path = Rules.dotted txt in
                if prefix = "" && path <> "" then
                  aliases := (name, path) :: !aliases
            | _ -> ())
        | _ -> ())
      items
  in
  walk_items ~prefix:"" structure;
  (List.rev !defs, List.rev !aliases)

(* --- the scan ---------------------------------------------------------- *)

let scan ~file src =
  let lines = split_lines src in
  let raw = ref [] in
  let defs = ref [] and aliases = ref [] in
  let parsed, comments = parse_structure ~file src in
  (match parsed with
  | Error (loc, what) ->
      let rule = Rules.rule "E001" in
      raw := [ finding_of rule loc (what ^ " — file cannot be analyzed") ~file ]
  | Ok structure ->
      let finding rule loc message =
        if Rule.applies rule ~path:file then
          raw := finding_of rule loc message ~file :: !raw
      in
      Rules.check_structure ~lines finding structure;
      Domains.check_structure finding structure;
      let d, a = defs_and_aliases structure in
      defs := d;
      aliases := a);
  {
    s_file = file;
    s_dir = Filename.dirname file;
    s_module = modname_of_file file;
    s_aliases = !aliases;
    s_defs = !defs;
    s_findings = List.sort_uniq Finding.compare !raw;
    s_allows = Allow.scan_comments ~file comments;
  }
