module Json = Rats_obs.Json

(* Orchestration, in two passes. Pass 1 turns every [.ml] into a
   {!Summary.t} (per-file findings, allows, defs/refs). Pass 2 is
   whole-program: the summaries become a {!Callgraph.t}, the taint pass
   adds D005 findings, unused allows become A002 findings, and suppression
   is applied over the union. *)

type report = {
  root : string;
  files : string list;
  findings : Finding.t list;
  suppressed : Finding.t list;
  allows : Allow.t list;
  graph : Callgraph.t;
}

let default_dirs = [ "bench"; "bin"; "lib"; "test" ]
let skip_dir_names = [ "_build"; ".git"; "lint_fixtures" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A001: a suppression is only acceptable with a written justification. *)
let a001_findings allows =
  let a001 = Rules.rule "A001" in
  List.filter_map
    (fun (a : Allow.t) ->
      match a.reason with
      | Some _ -> None
      | None ->
          Some
            {
              Finding.rule_id = a001.Rule.id;
              severity = a001.Rule.severity;
              file = a.file;
              line = a.line;
              col = 0;
              message =
                Printf.sprintf
                  "suppression of %s has no written justification — add one \
                   after a dash"
                  (String.concat ", " a.rules);
            })
    allows

(* A002: an allow no finding needed. Usage is checked against every
   non-A002 finding, so an allow naming A002 can suppress its own
   staleness report — that is the sanctioned way to keep a deliberately
   stale fixture. *)
let a002_findings ~used allows =
  let a002 = Rules.rule "A002" in
  List.filter_map
    (fun (a : Allow.t) ->
      if
        List.exists
          (fun (f : Finding.t) ->
            f.Finding.file = a.file
            && Allow.covers a ~rule_id:f.Finding.rule_id ~line:f.Finding.line)
          used
      then None
      else
        Some
          {
            Finding.rule_id = a002.Rule.id;
            severity = a002.Rule.severity;
            file = a.file;
            line = a.line;
            col = 0;
            message =
              Printf.sprintf
                "suppression of %s matches no finding — the hazard is gone or \
                 the code moved; delete or relocate the allow"
                (String.concat ", " a.rules);
          })
    allows

let apply_allows ~allows all =
  let all = List.sort_uniq Finding.compare all in
  let suppressed, findings =
    List.partition
      (fun (f : Finding.t) ->
        List.exists
          (fun (a : Allow.t) ->
            a.file = f.file && Allow.covers a ~rule_id:f.rule_id ~line:f.line)
          allows)
      all
  in
  (findings, suppressed)

let rec walk root rel acc =
  let abs = if rel = "" then root else Filename.concat root rel in
  let entries = Sys.readdir abs in
  Array.sort String.compare entries;
  Array.fold_left
    (fun acc name ->
      if List.mem name skip_dir_names then acc
      else
        let rel' = if rel = "" then name else rel ^ "/" ^ name in
        let abs' = Filename.concat root rel' in
        if Sys.is_directory abs' then walk root rel' acc
        else if Filename.check_suffix name ".ml" then rel' :: acc
        else acc)
    acc entries

let lint_tree ?(dirs = default_dirs) ~root () =
  let files =
    match dirs with
    | [] -> walk root "" []
    | dirs ->
        List.fold_left
          (fun acc dir ->
            let abs = Filename.concat root dir in
            if Sys.file_exists abs && Sys.is_directory abs then
              walk root dir acc
            else acc)
          [] dirs
  in
  let files = List.sort String.compare files in
  (* Pass 1: summarize every file. *)
  let summaries =
    List.map
      (fun file -> Summary.scan ~file (read_file (Filename.concat root file)))
      files
  in
  (* Pass 2: whole-program analysis over the summaries. *)
  let graph = Callgraph.build summaries in
  let allows =
    List.sort Allow.compare
      (List.concat_map (fun s -> s.Summary.s_allows) summaries)
  in
  let non_a002 =
    List.concat_map (fun s -> s.Summary.s_findings) summaries
    @ a001_findings allows @ Taint.findings graph
  in
  let all = non_a002 @ a002_findings ~used:non_a002 allows in
  let findings, suppressed = apply_allows ~allows all in
  { root; files; findings; suppressed; allows; graph }

let render_list to_human items =
  String.concat "" (List.map (fun x -> to_human x ^ "\n") items)

let render t = render_list Finding.to_human t.findings
let render_allows t = render_list Allow.to_human t.allows

let to_json t =
  Json.Obj
    [
      ("tool", Json.Str "rats_lint");
      ("root", Json.Str t.root);
      ("files_scanned", Json.Num (float_of_int (List.length t.files)));
      ("findings", Json.Arr (List.map Finding.to_json t.findings));
      ("suppressed", Json.Arr (List.map Finding.to_json t.suppressed));
      ("allows", Json.Arr (List.map Allow.to_json t.allows));
    ]
