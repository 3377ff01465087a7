open Parsetree

(* Domain-safety checks (R001/R002).

   R001 is a capture analysis: at every parallelism entry point
   (Domain.spawn, the Pool.map family), compute the free variables of the
   closure argument, expand through let-bound helpers defined in the
   same file (pool.ml's [Domain.spawn (worker (s + 1))] idiom), and flag
   any capture whose binding is provably mutable (ref, Hashtbl.create,
   Buffer/Queue/Stack.create, Array.make/init, Bytes.create) unless it is
   an Atomic/Mutex or the closure body takes a mutex itself.

   R002 is structural: a [Mutex.lock] is accepted only when it is the
   first half of [Mutex.lock m; Fun.protect ~finally:(... Mutex.unlock
   ...) ...]; any other shape leaks the lock on an exception. *)

module SS = Set.Make (String)

let rec pat_binders p acc =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> SS.add txt acc
  | Ppat_alias (inner, { txt; _ }) -> pat_binders inner (SS.add txt acc)
  | Ppat_tuple ps | Ppat_array ps ->
      List.fold_left (fun acc p -> pat_binders p acc) acc ps
  | Ppat_construct (_, Some (_, inner)) | Ppat_variant (_, Some inner) ->
      pat_binders inner acc
  | Ppat_record (fields, _) ->
      List.fold_left (fun acc (_, p) -> pat_binders p acc) acc fields
  | Ppat_or (a, b) -> pat_binders b (pat_binders a acc)
  | Ppat_constraint (inner, _)
  | Ppat_lazy inner
  | Ppat_open (_, inner)
  | Ppat_exception inner ->
      pat_binders inner acc
  | _ -> acc

(* Free value variables of [expr] (simple [Lident]s only — qualified names
   are module members, not captured locals). Unhandled constructor shapes
   contribute nothing, which under-approximates: a capture a rule misses
   is a false negative, never a false positive. *)
let free_vars expr =
  let rec fv bound e acc =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident x; _ } ->
        if SS.mem x bound then acc else SS.add x acc
    | Pexp_ident _ | Pexp_constant _ | Pexp_new _ | Pexp_unreachable
    | Pexp_extension _ | Pexp_object _ | Pexp_pack _ | Pexp_override _
    | Pexp_letop _ ->
        acc
    | Pexp_let (rf, vbs, body) ->
        let binders =
          List.fold_left (fun acc vb -> pat_binders vb.pvb_pat acc) SS.empty vbs
        in
        let inner = SS.union bound binders in
        let rhs_bound =
          match rf with Asttypes.Recursive -> inner | Nonrecursive -> bound
        in
        let acc =
          List.fold_left (fun acc vb -> fv rhs_bound vb.pvb_expr acc) acc vbs
        in
        fv inner body acc
    | Pexp_fun (_, default, pat, body) ->
        let acc =
          match default with Some d -> fv bound d acc | None -> acc
        in
        fv (pat_binders pat bound) body acc
    | Pexp_function cases -> cases_fv bound cases acc
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        cases_fv bound cases (fv bound scrut acc)
    | Pexp_apply (f, args) ->
        List.fold_left (fun acc (_, e) -> fv bound e acc) (fv bound f acc) args
    | Pexp_tuple es | Pexp_array es ->
        List.fold_left (fun acc e -> fv bound e acc) acc es
    | Pexp_construct (_, eo) | Pexp_variant (_, eo) -> (
        match eo with Some e -> fv bound e acc | None -> acc)
    | Pexp_record (fields, base) ->
        let acc = match base with Some e -> fv bound e acc | None -> acc in
        List.fold_left (fun acc (_, e) -> fv bound e acc) acc fields
    | Pexp_field (e, _) | Pexp_send (e, _) -> fv bound e acc
    | Pexp_setfield (a, _, b) | Pexp_sequence (a, b) | Pexp_while (a, b) ->
        fv bound b (fv bound a acc)
    | Pexp_ifthenelse (c, t, eo) ->
        let acc = fv bound t (fv bound c acc) in
        (match eo with Some e -> fv bound e acc | None -> acc)
    | Pexp_for (pat, lo, hi, _, body) ->
        fv (pat_binders pat bound) body (fv bound hi (fv bound lo acc))
    | Pexp_constraint (e, _)
    | Pexp_coerce (e, _, _)
    | Pexp_assert e
    | Pexp_lazy e
    | Pexp_newtype (_, e)
    | Pexp_open (_, e)
    | Pexp_letexception (_, e)
    | Pexp_poly (e, _)
    | Pexp_setinstvar (_, e)
    | Pexp_letmodule (_, _, e) ->
        fv bound e acc
  and cases_fv bound cases acc =
    List.fold_left
      (fun acc case ->
        let b = pat_binders case.pc_lhs bound in
        let acc =
          match case.pc_guard with Some g -> fv b g acc | None -> acc
        in
        fv b case.pc_rhs acc)
      acc cases
  in
  fv SS.empty expr SS.empty

(* Every qualified identifier mentioned under [e], for the Mutex-discipline
   and Fun.protect checks. *)
let dotted_idents e =
  let acc = ref SS.empty in
  let expr_hook (it : Ast_iterator.iterator) e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } ->
        acc := SS.add (Rules.normalize (Rules.dotted txt)) !acc
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr = expr_hook } in
  it.expr it e;
  !acc

(* Component-boundary suffix match: ["Pool.map"] matches ["Pool.map"] and
   ["Runtime.Pool.map"], never ["Workpool.map"]. *)
let ends_with ~suffix s =
  let n = String.length s and m = String.length suffix in
  if n < m || String.sub s (n - m) m <> suffix then false
  else n = m || s.[n - m - 1] = '.'

(* How a let-bound RHS classifies for the capture check. *)
type klass =
  | Mutable of string  (** provably shared-mutable; the payload names how *)
  | Guarded  (** Atomic/Mutex/Semaphore — the sanctioned sharing primitives *)
  | Func of expression  (** a local function: expand its free variables *)

let classify rhs =
  match rhs.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> Some (Func rhs)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match Rules.normalize (Rules.dotted txt) with
      | "ref" -> Some (Mutable "ref")
      | ( "Hashtbl.create" | "Buffer.create" | "Queue.create" | "Stack.create"
        | "Array.make" | "Array.init" | "Array.create_float" | "Bytes.create"
        | "Bytes.make" ) as name ->
          Some (Mutable name)
      | "Atomic.make" | "Mutex.create" | "Condition.create"
      | "Semaphore.Counting.make" | "Semaphore.Binary.make" ->
          Some Guarded
      | _ -> None)
  | _ -> None

let spawn_names = [ "Domain.spawn" ]

let pool_suffixes =
  [
    "Pool.map"; "Pool.mapi"; "Pool.map_result"; "Pool.map_array";
    "Pool.map_array_capture";
  ]

let spawn_kind name =
  if List.mem name spawn_names then Some name
  else
    List.find_opt (fun suffix -> ends_with ~suffix name) pool_suffixes
    |> Option.map (fun _ -> name)

let first_positional args =
  List.find_map
    (fun (label, e) ->
      match label with Asttypes.Nolabel -> Some e | _ -> None)
    args

let check_structure finding structure =
  (* File-wide binding classification: name -> klass, last binding wins.
     Scoping is approximated — [free_vars] already keeps locally-bound
     names out, so the map only answers "what does this captured name
     most plausibly refer to". *)
  let env : (string, klass) Hashtbl.t = Hashtbl.create 64 in
  let record_binding vb =
    match pat_binders vb.pvb_pat SS.empty |> SS.elements with
    | [ name ] -> (
        match classify vb.pvb_expr with
        | Some k -> Hashtbl.replace env name k
        | None -> Hashtbl.remove env name)
    | _ -> ()
  in
  let env_pass =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun it vb ->
          record_binding vb;
          Ast_iterator.default_iterator.value_binding it vb);
    }
  in
  env_pass.structure env_pass structure;
  (* Transitive capture set of a closure argument: its free variables,
     plus — through a fixpoint — the free variables of any same-file
     function a free variable names. *)
  let captures arg =
    let seen = ref SS.empty in
    let idents = ref (dotted_idents arg) in
    let rec grow frontier =
      let next =
        SS.fold
          (fun name acc ->
            if SS.mem name !seen then acc
            else begin
              seen := SS.add name !seen;
              match Hashtbl.find_opt env name with
              | Some (Func body) ->
                  idents := SS.union (dotted_idents body) !idents;
                  SS.union (free_vars body) acc
              | _ -> acc
            end)
          frontier SS.empty
      in
      if not (SS.is_empty next) then grow next
    in
    grow (free_vars arg);
    (!seen, !idents)
  in
  let check_spawn loc name args =
    match first_positional args with
    | None -> ()
    | Some arg ->
        let captured, idents = captures arg in
        (* Mutex discipline inside the closure: R002 separately checks the
           unlock path, so a locking closure's captures are presumed
           guarded. *)
        if not (SS.exists (fun id -> ends_with ~suffix:"Mutex.lock" id) idents)
        then begin
          let flagged =
            SS.fold
              (fun v acc ->
                match Hashtbl.find_opt env v with
                | Some (Mutable kind) -> (v, kind) :: acc
                | _ -> acc)
              captured []
            |> List.sort compare
          in
          if flagged <> [] then
            finding (Rules.rule "R001") loc
              (Printf.sprintf
                 "%s captured by the closure passed to %s — share via \
                  Atomic/Mutex or keep it domain-local"
                 (String.concat ", "
                    (List.map
                       (fun (v, kind) -> Printf.sprintf "`%s` (%s)" v kind)
                       flagged))
                 name)
        end
  in
  (* R002: locks accepted as [Mutex.lock m; Fun.protect ~finally:(...
     Mutex.unlock ...) ...] are marked handled by the enclosing-sequence
     visit (iterators run top-down); any lock reached unmarked leaks. *)
  let handled_locks : (Location.t, unit) Hashtbl.t = Hashtbl.create 8 in
  let lock_loc e =
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, _)
      when ends_with ~suffix:"Mutex.lock" (Rules.normalize (Rules.dotted txt))
      ->
        Some loc
    | _ -> None
  in
  let rec protects_unlock e =
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
      when Rules.normalize (Rules.dotted txt) = "Fun.protect" ->
        List.exists
          (fun (label, arg) ->
            label = Asttypes.Labelled "finally"
            && SS.exists
                 (fun id -> ends_with ~suffix:"Mutex.unlock" id)
                 (dotted_idents arg))
          args
    | Pexp_sequence (first, _) -> protects_unlock first
    | Pexp_let (_, vbs, body) ->
        (* [let x = Fun.protect ... in ...] right after the lock is the
           same discipline with the result bound. *)
        List.exists (fun vb -> protects_unlock vb.pvb_expr) vbs
        || protects_unlock body
    | _ -> false
  in
  let expr_hook (it : Ast_iterator.iterator) e =
    (match e.pexp_desc with
    | Pexp_sequence (a, rest) -> (
        match lock_loc a with
        | Some loc when protects_unlock rest -> Hashtbl.replace handled_locks loc ()
        | _ -> ())
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) -> (
        let name = Rules.normalize (Rules.dotted txt) in
        match spawn_kind name with
        | Some name -> check_spawn loc name args
        | None ->
            if
              ends_with ~suffix:"Mutex.lock" name
              && not (Hashtbl.mem handled_locks loc)
            then
              finding (Rules.rule "R002") loc
                "Mutex.lock without a Fun.protect'd unlock — an exception \
                 before the unlock leaves the mutex held forever")
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr = expr_hook } in
  it.structure it structure
