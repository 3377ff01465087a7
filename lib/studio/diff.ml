module Report = Rats_runtime.Report
module Snapshot = Rats_obs.Snapshot

type side = { wall_s : float; cache_hits : int; cache_misses : int }

type target_delta = {
  label : string;
  a : side option;
  b : side option;
  pct : float option;
}

type counter_delta = { name : string; ca : int option; cb : int option; delta : int }

let side_of (tg : Report.target) =
  {
    wall_s = tg.Report.wall_s;
    cache_hits = tg.Report.cache_hits;
    cache_misses = tg.Report.cache_misses;
  }

let delta_of label a b =
  let pct =
    match (a, b) with
    | Some a, Some b when a.wall_s > 0. ->
        Some ((b.wall_s -. a.wall_s) /. a.wall_s *. 100.)
    | _ -> None
  in
  { label; a; b; pct }

let targets ta tb =
  let of_a (tg : Report.target) =
    let b = Option.map side_of (Report.target tb tg.Report.label) in
    delta_of tg.Report.label (Some (side_of tg)) b
  in
  let only_b =
    List.filter_map
      (fun (tg : Report.target) ->
        match Report.target ta tg.Report.label with
        | Some _ -> None
        | None -> Some (delta_of tg.Report.label None (Some (side_of tg))))
      tb.Report.targets
  in
  List.map of_a ta.Report.targets @ only_b

let counters ?(all = false) ta tb =
  let of_side (t : Report.doc) =
    match t.Report.metrics with Some s -> s.Snapshot.counters | None -> []
  in
  let ca = of_side ta and cb = of_side tb in
  let names =
    List.sort_uniq String.compare (List.map fst ca @ List.map fst cb)
  in
  List.filter_map
    (fun name ->
      let va = List.assoc_opt name ca and vb = List.assoc_opt name cb in
      let delta = Option.value vb ~default:0 - Option.value va ~default:0 in
      if all || delta <> 0 then Some { name; ca = va; cb = vb; delta }
      else None)
    names

let warnings ta tb =
  let scale =
    match (ta.Report.scale, tb.Report.scale) with
    | Some a, Some b when a <> b ->
        [
          Printf.sprintf
            "scale mismatch: %s is a %S run, %s a %S run — wall times \
             measure different work and are not comparable (the committed \
             snapshot's scale is noted in docs/PERFORMANCE.md)"
            ta.Report.path a tb.Report.path b;
        ]
    | _ -> []
  in
  let version =
    if ta.Report.version <> tb.Report.version then
      [
        Printf.sprintf
          "schema versions differ (%d vs %d): counter deltas are %s"
          ta.Report.version tb.Report.version
          (if ta.Report.version < 2 || tb.Report.version < 2 then
             "unavailable — version 1 reports embed no metrics snapshot"
           else "computed across versions");
      ]
    else []
  in
  let cache =
    let hits t =
      List.fold_left (fun n (tg : Report.target) -> n + tg.Report.cache_hits) 0
        t.Report.targets
    in
    match (hits ta > 0, hits tb > 0) with
    | true, false | false, true ->
        [
          "one side ran with a warm result cache and the other cold — \
           wall-time deltas mostly measure the cache, not the code";
        ]
    | _ -> []
  in
  scale @ version @ cache

(* --- text rendering ------------------------------------------------------ *)

let fmt_wall = function
  | None -> "-"
  | Some s -> Printf.sprintf "%.3f" s.wall_s

let fmt_pct = function
  | None -> "-"
  | Some p -> Printf.sprintf "%+.1f%%" p

let marker threshold = function
  | Some p when p >= threshold -> "REGRESSION"
  | Some p when p <= -.threshold -> "improved"
  | _ -> ""

let to_text ?(threshold = 5.) ta tb =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "A: %s (scale %s, schema %d)" ta.Report.path
    (Option.value ta.Report.scale ~default:"?")
    ta.Report.version;
  line "B: %s (scale %s, schema %d)" tb.Report.path
    (Option.value tb.Report.scale ~default:"?")
    tb.Report.version;
  List.iter (fun w -> line "warning: %s" w) (warnings ta tb);
  line "";
  line "%-12s %12s %12s %12s %8s  %s" "target" "A wall_s" "B wall_s" "delta_s"
    "delta" "";
  List.iter
    (fun d ->
      let delta_s =
        match (d.a, d.b) with
        | Some a, Some b -> Printf.sprintf "%+.3f" (b.wall_s -. a.wall_s)
        | _ -> "-"
      in
      line "%-12s %12s %12s %12s %8s  %s" d.label (fmt_wall d.a) (fmt_wall d.b)
        delta_s (fmt_pct d.pct) (marker threshold d.pct))
    (targets ta tb);
  let cs = counters ta tb in
  if cs <> [] then begin
    line "";
    line "changed counters (B - A):";
    List.iter
      (fun c ->
        line "  %-55s %14s %14s %+14d" c.name
          (match c.ca with Some v -> string_of_int v | None -> "-")
          (match c.cb with Some v -> string_of_int v | None -> "-")
          c.delta)
      cs
  end;
  Buffer.contents buf

(* --- HTML rendering ------------------------------------------------------ *)

let to_html ?(threshold = 5.) ta tb =
  let num s = Html.el "td" ~cls:"num" (Html.escape s) in
  let target_rows =
    List.map
      (fun d ->
        let cls =
          match d.pct with
          | Some p when p >= threshold -> Some "regression"
          | Some p when p <= -.threshold -> Some "improvement"
          | _ -> None
        in
        let delta_s =
          match (d.a, d.b) with
          | Some a, Some b -> Printf.sprintf "%+.3f" (b.wall_s -. a.wall_s)
          | _ -> "-"
        in
        [
          Html.text_el "td" d.label;
          num (fmt_wall d.a);
          num (fmt_wall d.b);
          num delta_s;
          Html.el "td" ?cls (Html.escape (fmt_pct d.pct));
        ])
      (targets ta tb)
  in
  let counter_rows =
    List.map
      (fun c ->
        [
          Html.text_el "td" c.name;
          num (match c.ca with Some v -> string_of_int v | None -> "-");
          num (match c.cb with Some v -> string_of_int v | None -> "-");
          num (Printf.sprintf "%+d" c.delta);
        ])
      (counters ta tb)
  in
  let raw_table header rows =
    Html.el "table" ~cls:"data"
      (Html.el "thead"
         (Html.el "tr"
            (String.concat "" (List.map (Html.text_el "th") header)))
      ^ Html.el "tbody"
          (String.concat "\n"
             (List.map (fun r -> Html.el "tr" (String.concat "" r)) rows)))
  in
  let body =
    String.concat "\n"
      ([
         Html.text_el "h1" "Bench A/B diff";
         Html.kv_table
           [
             ("A", Printf.sprintf "%s (scale %s, schema %d)" ta.Report.path
                 (Option.value ta.Report.scale ~default:"?") ta.Report.version);
             ("B", Printf.sprintf "%s (scale %s, schema %d)" tb.Report.path
                 (Option.value tb.Report.scale ~default:"?") tb.Report.version);
           ];
       ]
      @ List.map
          (fun w -> Html.el "div" ~cls:"warn" (Html.escape w))
          (warnings ta tb)
      @ [
          Html.text_el "h2" "Per-target wall time";
          raw_table [ "target"; "A wall_s"; "B wall_s"; "delta_s"; "delta %" ]
            target_rows;
        ]
      @
      if counter_rows = [] then
        [ Html.el "p" ~cls:"muted" "No embedded counter deltas." ]
      else
        [
          Html.text_el "h2" "Changed counters (B − A)";
          raw_table [ "counter"; "A"; "B"; "delta" ] counter_rows;
        ])
  in
  Html.page ~title:"Bench A/B diff" body
