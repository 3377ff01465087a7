open Parsetree

(* Result-producing libraries: anything whose outputs land in
   bench_results/*.csv, the cache or the journal. *)
let result_dirs =
  [ "lib/core/"; "lib/dag/"; "lib/exp/"; "lib/redist/"; "lib/runtime/"; "lib/sim/" ]

let catalogue : Rule.t list =
  [
    {
      Rule.id = "A001";
      severity = Rule.Error;
      title = "lint suppression without a written justification";
      rationale =
        "Every allow is an audited exception; --list-allows must show why \
         each one is safe.";
      include_dirs = [];
      exclude_dirs = [];
    };
    {
      Rule.id = "A002";
      severity = Rule.Error;
      title = "stale lint suppression that matches no finding";
      rationale =
        "An allow that suppresses nothing is dead audit weight: either the \
         hazard was fixed (delete the allow) or the code drifted off the \
         allow's line (move it). Whole-program runs only.";
      include_dirs = [];
      exclude_dirs = [];
    };
    {
      Rule.id = "D001";
      severity = Rule.Error;
      title = "unordered hash traversal in a result-producing library";
      rationale =
        "Hashtbl iteration order is unspecified; folding it into results \
         breaks bit-identical CSVs and cache replay.";
      include_dirs = result_dirs;
      exclude_dirs = [];
    };
    {
      Rule.id = "D002";
      severity = Rule.Error;
      title = "wall-clock or entropy source outside lib/obs";
      rationale =
        "Time and randomness must flow through the observability layer so \
         replayed runs compute identical results.";
      include_dirs = [];
      exclude_dirs = [ "lib/obs/" ];
    };
    {
      Rule.id = "D003";
      severity = Rule.Error;
      title = "directory listing not sorted before use";
      rationale =
        "Sys.readdir order depends on the filesystem; recovery scans and \
         sweeps must process entries in sorted order.";
      include_dirs = [];
      exclude_dirs = [];
    };
    {
      Rule.id = "D004";
      severity = Rule.Warning;
      title = "polymorphic comparison on float operands in a hot path";
      rationale =
        "Polymorphic =/compare/min/max on floats box operands and have \
         surprising NaN semantics; Float.equal/compare/min/max state intent.";
      include_dirs = [ "lib/core/"; "lib/sim/" ];
      exclude_dirs = [];
    };
    {
      Rule.id = "D005";
      severity = Rule.Error;
      title =
        "result-producing function transitively reaches a nondeterminism \
         source";
      rationale =
        "A cross-module call chain can smuggle wall-clock/entropy into \
         results D002's per-file scan never sees; the whole-program taint \
         pass reports the full call path to the source.";
      include_dirs =
        [
          "lib/core/"; "lib/dag/"; "lib/redist/"; "lib/server/"; "lib/sim/";
          "lib/workload/";
        ];
      exclude_dirs = [];
    };
    {
      Rule.id = "E001";
      severity = Rule.Error;
      title = "source file does not parse";
      rationale = "An unparseable file cannot be analyzed and cannot build.";
      include_dirs = [];
      exclude_dirs = [];
    };
    {
      Rule.id = "H001";
      severity = Rule.Error;
      title = "catch-all exception handler in runtime retry/pool code";
      rationale =
        "try ... with _ -> swallows Out_of_memory/Stack_overflow and turns \
         fatal conditions into retried task failures.";
      include_dirs = [ "lib/runtime/" ];
      exclude_dirs = [];
    };
    {
      Rule.id = "H002";
      severity = Rule.Error;
      title = "direct stdout print in library code";
      rationale =
        "Library output must go through Runtime.Progress/Report or a \
         formatter argument; stdout belongs to the binaries.";
      include_dirs = [ "lib/" ];
      exclude_dirs = [];
    };
    {
      Rule.id = "R001";
      severity = Rule.Error;
      title =
        "shared mutable state captured by a parallel closure without \
         Atomic/Mutex discipline";
      rationale =
        "A ref/Hashtbl/Buffer/Queue/array reached from a closure handed to \
         Domain.spawn or Pool.map races across domains; share it via \
         Atomic/Mutex or keep it domain-local.";
      include_dirs = [ "lib/" ];
      exclude_dirs = [];
    };
    {
      Rule.id = "R002";
      severity = Rule.Error;
      title = "Mutex.lock without a Fun.protect-guaranteed unlock";
      rationale =
        "If anything between lock and unlock raises, the mutex stays held \
         and every later locker deadlocks; the unlock must sit in a \
         Fun.protect ~finally.";
      include_dirs = [ "lib/" ];
      exclude_dirs = [];
    };
  ]

let by_id id = List.find_opt (fun r -> r.Rule.id = id) catalogue

let rule id =
  match by_id id with
  | Some r -> r
  | None -> invalid_arg ("Rules.rule: unknown id " ^ id)

type finding = Rule.t -> Location.t -> string -> unit

let rec dotted = function
  | Longident.Lident s -> s
  | Longident.Ldot (l, s) -> dotted l ^ "." ^ s
  | Longident.Lapply _ -> ""

let normalize name =
  if String.length name > 7 && String.sub name 0 7 = "Stdlib." then
    String.sub name 7 (String.length name - 7)
  else name

let d001_names =
  [
    "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.to_seq"; "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values";
  ]

let d002_names = [ "Unix.gettimeofday"; "Unix.time"; "Random.self_init" ]
let d003_names = [ "Sys.readdir"; "Unix.readdir" ]

let h002_names =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float"; "Printf.printf"; "Format.printf";
    "Format.print_string"; "Format.print_newline";
  ]

let d004_targets =
  [ ("=", "Float.equal"); ("compare", "Float.compare"); ("min", "Float.min");
    ("max", "Float.max") ]

(* D003's dataflow check is a proximity heuristic: the listing is taken to
   flow through a sort when the word "sort" occurs on the call's line or
   within the next three lines (covers [Array.sort compare files] right
   after the call and helpers named [readdir_sorted]). *)
let sorted_nearby lines line =
  let n = Array.length lines in
  let rec contains_sort s i =
    if i + 4 > String.length s then false
    else if String.sub s i 4 = "sort" then true
    else contains_sort s (i + 1)
  in
  let rec go l =
    l <= line + 3 && l <= n
    && (contains_sort lines.(l - 1) 0 || go (l + 1))
  in
  go line

let is_float_type ct =
  match ct.ptyp_desc with
  | Ptyp_constr ({ txt = Longident.Lident "float"; _ }, []) -> true
  | _ -> false

(* Literal/annotation-driven: only flag a comparison when an operand is
   provably a float without type inference. *)
let rec float_evidence e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_constraint (inner, ct) -> is_float_type ct || float_evidence inner
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match normalize (dotted txt) with
      | "float_of_int" | "Float.of_int" -> true
      | _ -> false)
  | _ -> false

let rec catch_all pat =
  match pat.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (inner, _) -> catch_all inner
  | Ppat_or (a, b) -> catch_all a || catch_all b
  | _ -> false

let check_structure ~lines finding structure =
  let ident loc name =
    let name = normalize name in
    if List.mem name d001_names then finding (rule "D001") loc (name ^ ": hash traversal order is unspecified — fold into a list and sort it first")
    else if List.mem name d002_names then finding (rule "D002") loc (name ^ ": wall-clock/entropy outside lib/obs breaks replayable runs — use Rats_obs.Instr.now_s or route it through the obs layer")
    else if List.mem name h002_names then finding (rule "H002") loc (name ^ ": library code must not print to stdout — use Runtime.Progress/Report or take a formatter")
    else if List.mem name d003_names then begin
      let line = loc.Location.loc_start.pos_lnum in
      if not (sorted_nearby lines line) then
        finding (rule "D003") loc (name ^ ": listing order depends on the filesystem — sort the result before use")
    end
  in
  let handle_cases ~in_try cases =
    List.iter
      (fun case ->
        match case.pc_guard with
        | Some _ -> ()
        | None -> (
            let flag pat =
              finding (rule "H001") pat.ppat_loc
                "catch-all exception handler can swallow \
                 Out_of_memory/Stack_overflow — match specific exceptions or \
                 add a `when Fatal.recoverable e` guard"
            in
            match case.pc_lhs.ppat_desc with
            | Ppat_exception inner when catch_all inner -> flag case.pc_lhs
            | _ when in_try && catch_all case.pc_lhs -> flag case.pc_lhs
            | _ -> ()))
      cases
  in
  let expr_hook (it : Ast_iterator.iterator) e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> ident loc (dotted txt)
    | Pexp_try (_, cases) -> handle_cases ~in_try:true cases
    | Pexp_match (_, cases) -> handle_cases ~in_try:false cases
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) -> (
        match
          List.assoc_opt (normalize (dotted txt)) d004_targets
        with
        | Some replacement
          when List.exists (fun (_, arg) -> float_evidence arg) args ->
            finding (rule "D004") loc
              (Printf.sprintf
                 "polymorphic %s on a float operand — use %s for explicit \
                  NaN/zero semantics"
                 (normalize (dotted txt)) replacement)
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let iterator = { Ast_iterator.default_iterator with expr = expr_hook } in
  iterator.structure iterator structure
