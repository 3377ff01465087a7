module Json = Rats_obs.Json

type t = {
  file : string;
  line : int;
  rules : string list;
  reason : string option;
}

let is_rule_id s =
  String.length s = 4
  && s.[0] >= 'A'
  && s.[0] <= 'Z'
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub s 1 3)

(* The justification starts at the first alphanumeric byte after the rule
   ids, which skips ASCII separators and the UTF-8 em dash alike. *)
let strip_separators s =
  let n = String.length s in
  let is_word c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  in
  let rec go i = if i < n && not (is_word s.[i]) then go (i + 1) else i in
  let i = go 0 in
  String.sub s i (n - i)

(* Splits ["D001, D002 — reason"] into rule ids and the justification;
   an absent or empty justification yields [None]. *)
let parse_spec spec =
  let words =
    String.split_on_char ' ' (String.map (fun c -> if c = ',' then ' ' else c) spec)
    |> List.filter (fun w -> w <> "")
  in
  let rec take_ids acc = function
    | w :: rest when is_rule_id w -> take_ids (w :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let ids, rest = take_ids [] words in
  let reason = strip_separators (String.trim (String.concat " " rest)) in
  (ids, if reason = "" then None else Some reason)

let find_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let scan_comments ~file comments =
  let marker = "lint: allow" in
  let scan_line line_no line =
    match find_sub ~sub:marker line with
    | None -> []
    | Some at ->
        let rest =
          String.sub line (at + String.length marker)
            (String.length line - at - String.length marker)
        in
        (* A nested comment's terminator ends the justification too. *)
        let rest =
          match find_sub ~sub:"*)" rest with
          | Some e -> String.sub rest 0 e
          | None -> rest
        in
        let rules, reason = parse_spec rest in
        if rules = [] then [] else [ { file; line = line_no; rules; reason } ]
  in
  List.concat_map
    (fun (first_line, text) ->
      List.concat
        (List.mapi
           (fun i line -> scan_line (first_line + i) line)
           (String.split_on_char '\n' text)))
    comments

let covers t ~rule_id ~line = line = t.line && List.mem rule_id t.rules

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c else Stdlib.compare a.rules b.rules

let to_human t =
  Printf.sprintf "%s:%d: allow %s — %s" t.file t.line
    (String.concat ", " t.rules)
    (match t.reason with Some r -> r | None -> "(no justification)")

let to_json t =
  Json.Obj
    [
      ("file", Json.Str t.file);
      ("line", Json.Num (float_of_int t.line));
      ("rules", Json.Arr (List.map (fun r -> Json.Str r) t.rules));
      ( "reason",
        match t.reason with Some r -> Json.Str r | None -> Json.Null );
    ]
