(* [perf.exe compare A B]: is result set B worse than result set A?

   A result set is a directory of run records ([--out]). For every workload
   and end-to-end metric of BENCHMARK.json this prints each side's median,
   quartiles and run count and a verdict under the metric's bound:

   - better / worse when every run of one side beats every run of the
     other (worse only if the medians also differ by more than the bound);
   - otherwise unresolved when either side's quartile spread exceeds the
     bound, since a median shift inside the noise proves nothing;
   - otherwise worse when B's median is worse than A's by more than the
     bound, better when it is better by more than the bound, and
     unchanged in between.

   Output digests and deterministic facts must agree between every two
   runs of the same workload and seed, on either side. *)

module Json = Rats_obs.Json

type bound = { metric : string; lower_is_better : bool; bound : float }

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or malformed %S" name)

let bounds_of_benchmark path =
  let* doc = Json.parse (Workload.read_file path) in
  let* metrics = field "end_to_end" Json.to_list doc in
  List.fold_right
    (fun m acc ->
      let* acc = acc in
      let* metric = field "name" Json.to_str m in
      let* better = field "better" Json.to_str m in
      let* bound = field "bound" Json.to_float m in
      Ok ({ metric; lower_is_better = better = "lower"; bound } :: acc))
    metrics (Ok [])

type record = {
  workload : string;
  seed : int;
  digest : string;
  facts : (string * float) list;
  values : (string * float) list;
  file : string;
}

let record_of_json file j =
  let* workload = field "workload" Json.to_str j in
  let* seed = field "seed" Json.to_int j in
  let* digest = field "output_digest" Json.to_str j in
  let* facts = field "facts" (function Json.Obj l -> Some l | _ -> None) j in
  let* metrics = field "metrics" (function Json.Obj l -> Some l | _ -> None) j in
  let nums l =
    List.filter_map
      (fun (k, v) ->
        match v with
        | Json.Obj _ -> Option.map (fun x -> (k, x)) (Option.bind (Json.member "value" v) Json.to_float)
        | v -> Option.map (fun x -> (k, x)) (Json.to_float v))
      l
  in
  Ok { workload; seed; digest; facts = nums facts; values = nums metrics; file }

(* Untraced run records of a directory, in file-name order. *)
let load_set dir =
  let files = Sys.readdir dir in
  Array.sort String.compare files;
  Array.fold_right
    (fun f acc ->
      let* acc = acc in
      if not (Filename.check_suffix f ".json") then Ok acc
      else
        let path = Filename.concat dir f in
        let* j =
          Result.map_error (fun e -> path ^ ": " ^ e) (Json.parse (Workload.read_file path))
        in
        match Json.member "traced" j with
        | Some (Json.Bool true) -> Ok acc
        | _ ->
            let* r = Result.map_error (fun e -> path ^ ": " ^ e) (record_of_json path j) in
            Ok (r :: acc))
    files (Ok [])

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* [a] is the reference side, [b] the candidate. *)
let verdict b_ a b =
  let beats x y = if b_.lower_is_better then x < y else x > y in
  let all_beat xs ys = Array.for_all (fun x -> Array.for_all (fun y -> beats x y) ys) xs in
  let ma = Rats_util.Stats.median a and mb = Rats_util.Stats.median b in
  (* Positive when b's median is worse than a's, as a share of a's. *)
  let worse_by =
    if ma = 0. then 0.
    else (if b_.lower_is_better then mb -. ma else ma -. mb) /. Float.abs ma
  in
  let spread = Float.max (Stats.rel_spread a) (Stats.rel_spread b) in
  if all_beat b a then Better
  else if all_beat a b then if worse_by > b_.bound then Worse else Unchanged
  else if spread > b_.bound then Unresolved
  else if worse_by > b_.bound then Worse
  else if -.worse_by > b_.bound then Better
  else Unchanged

type row = {
  workload : string;
  bound : bound;
  sides : (float * float * float * int) * (float * float * float * int);
      (** (q1, median, q3, runs) of A and of B. *)
  verdict : verdict;
}

let summary xs =
  let q1, _, q3 = Stats.quartiles xs in
  (q1, Rats_util.Stats.median xs, q3, Array.length xs)

let rows bounds set_a set_b =
  let workloads =
    List.sort_uniq String.compare
      (List.map (fun (r : record) -> r.workload) (set_a @ set_b))
  in
  List.concat_map
    (fun w ->
      List.filter_map
        (fun (b : bound) ->
          let values set =
            Array.of_list
              (List.filter_map
                 (fun (r : record) ->
                   if r.workload = w then List.assoc_opt b.metric r.values else None)
                 set)
          in
          let a = values set_a and bv = values set_b in
          if Array.length a = 0 || Array.length bv = 0 then None
          else
            Some
              {
                workload = w;
                bound = b;
                sides = (summary a, summary bv);
                verdict = verdict b a bv;
              })
        bounds)
    workloads

(* Digest or fact disagreements with the first run of the same workload
   and seed. *)
let mismatches records =
  List.filter_map
    (fun (r : record) ->
      let first =
        List.find (fun (f : record) -> f.workload = r.workload && f.seed = r.seed) records
      in
      if r.digest <> first.digest then
        Some
          (Printf.sprintf "%s seed %d: output_digest %s (%s) <> %s (%s)" r.workload
             r.seed r.digest r.file first.digest first.file)
      else if r.facts <> first.facts then
        Some
          (Printf.sprintf "%s seed %d: deterministic facts differ (%s vs %s)"
             r.workload r.seed r.file first.file)
      else None)
    records

let missing_workloads set_a set_b =
  let names set = List.sort_uniq String.compare (List.map (fun (r : record) -> r.workload) set) in
  let a = names set_a and b = names set_b in
  List.filter (fun w -> not (List.mem w b)) a @ List.filter (fun w -> not (List.mem w a)) b

(* Prints the table; the exit status is 1 on a regression, a digest or fact
   mismatch or a workload only one side ran. *)
let run dir_a dir_b =
  let benchmark = "BENCHMARK.json" in
  match
    let* bounds = Result.map_error (fun e -> benchmark ^ ": " ^ e) (bounds_of_benchmark benchmark) in
    let* a = load_set dir_a in
    let* b = load_set dir_b in
    Ok (bounds, a, b)
  with
  | Error e ->
      Format.eprintf "compare: %s@." e;
      2
  | Ok (bounds, a, b) ->
      Format.printf "%-14s %-16s %8s | %-32s | %-32s | %s@." "workload" "metric" "bound"
        ("A: q1 / median / q3 (runs)") ("B: q1 / median / q3 (runs)") "verdict";
      let rows = rows bounds a b in
      let side (q1, m, q3, n) = Printf.sprintf "%9.4g / %9.4g / %9.4g (%d)" q1 m q3 n in
      List.iter
        (fun r ->
          Format.printf "%-14s %-16s %7.0f%% | %-32s | %-32s | %s@." r.workload r.bound.metric
            (100. *. r.bound.bound) (side (fst r.sides)) (side (snd r.sides)) (verdict_name r.verdict))
        rows;
      let bad = mismatches (a @ b) in
      List.iter (Format.printf "MISMATCH %s@.") bad;
      let missing = missing_workloads a b in
      List.iter (Format.printf "MISSING %s has runs on one side only@.") missing;
      let worse = List.filter (fun r -> r.verdict = Worse) rows in
      Format.printf "%d regression(s), %d unresolved, %d mismatch(es)@." (List.length worse)
        (List.length (List.filter (fun r -> r.verdict = Unresolved) rows))
        (List.length bad + List.length missing);
      if worse = [] && bad = [] && missing = [] then 0 else 1
