module Report = Rats_runtime.Report
module Journal = Rats_runtime.Journal
module Snapshot = Rats_obs.Snapshot
module Trace = Rats_obs.Trace
module Svg = Rats_viz.Svg
module Chart = Rats_viz.Chart
module Timeline = Rats_viz.Timeline

type served = {
  refresh_s : int;
  journal : (string * (Journal.tail, string) result) option;
  warnings : string list;
}

type input = {
  title : string;
  bench : Report.doc option;
  snapshot : Snapshot.t option;
  trace : Trace.event list option;
  workloads : (string * string) list;
  figures : (string * string) list;
  served : served option;
}

let empty ~title =
  {
    title;
    bench = None;
    snapshot = None;
    trace = None;
    workloads = [];
    figures = [];
    served = None;
  }

let load ~title ?bench ?metrics ?trace () =
  let warnings = ref [] in
  let artifact what read path =
    Option.bind path (fun path ->
        match read path with
        | Ok v -> Some v
        | Error msg ->
            let w = Printf.sprintf "%s %s (section omitted)" what msg in
            warnings := w :: !warnings;
            None)
  in
  let bench = artifact "bench report" Report.load bench in
  let snapshot = artifact "metrics snapshot" Snapshot.of_file metrics in
  let trace = artifact "trace" Check.trace trace in
  ({ (empty ~title) with bench; snapshot; trace }, List.rev !warnings)

let section title body = Html.text_el "h2" title :: body

let missing what = [ Html.el "p" ~cls:"muted" (Html.escape ("No " ^ what ^ ".")) ]

let figure caption svg =
  Html.el "div" ~cls:"figure" (Html.text_el "p" caption ^ "\n" ^ svg)

let num_cell s = Html.el "td" ~cls:"num" (Html.escape s)

let raw_table ?cls header rows =
  Html.table_raw ?cls ~header rows

(* --- run summary + per-target breakdown ---------------------------------- *)

let summary_of (b : Report.doc) =
  let sum f = List.fold_left (fun n tg -> n + f tg) 0 b.Report.targets in
  let hits = sum (fun tg -> tg.Report.cache_hits) in
  let misses = sum (fun tg -> tg.Report.cache_misses) in
  Html.kv_table
    ([
       ("report", b.Report.path);
       ("schema version", string_of_int b.Report.version);
       ("scale", Option.value b.Report.scale ~default:"(not recorded)");
     ]
    @ (match b.Report.jobs with
      | Some j -> [ ("jobs", string_of_int j) ]
      | None -> [])
    @ (match b.Report.total_wall_s with
      | Some w -> [ ("total wall", Printf.sprintf "%.3f s" w) ]
      | None -> [])
    @ [
        ( "cache",
          Printf.sprintf "%d hits / %d misses%s" hits misses
            (if hits + misses = 0 then ""
             else
               Printf.sprintf " (%.1f%% hit rate)"
                 (100. *. float_of_int hits /. float_of_int (hits + misses))) );
        ( "faults",
          Printf.sprintf "%d failed, %d retried, %d resumed"
            (sum (fun tg -> tg.Report.failed))
            (sum (fun tg -> tg.Report.retried))
            (sum (fun tg -> tg.Report.resumed)) );
      ])

let targets_of (b : Report.doc) =
  match b.Report.targets with
  | [] -> missing "targets in the bench report"
  | targets ->
      let rows =
        List.map
          (fun (tg : Report.target) ->
            [
              Html.text_el "td" tg.Report.label;
              num_cell (Printf.sprintf "%.3f" tg.Report.wall_s);
              num_cell (string_of_int tg.Report.jobs);
              num_cell (string_of_int tg.Report.cache_hits);
              num_cell (string_of_int tg.Report.cache_misses);
              num_cell (string_of_int tg.Report.failed);
              num_cell (string_of_int tg.Report.retried);
              num_cell (string_of_int tg.Report.resumed);
            ])
          targets
      in
      let chart =
        Chart.bars ~title:"wall time per target (s)"
          ~value_label:(fun v -> Printf.sprintf "%.3f s" v)
          (List.map
             (fun (tg : Report.target) -> (tg.Report.label, tg.Report.wall_s))
             targets)
      in
      [
        raw_table
          [ "target"; "wall_s"; "jobs"; "hits"; "misses"; "failed"; "retried"; "resumed" ]
          rows;
        figure "Per-target wall-time breakdown." (Svg.to_string chart);
      ]

(* --- metrics -------------------------------------------------------------- *)

let counters_of (s : Snapshot.t) =
  match s.Snapshot.counters with
  | [] -> missing "counters"
  | counters ->
      let rows =
        List.map
          (fun (name, v) ->
            [ Html.text_el "td" name; num_cell (string_of_int v) ])
          counters
      in
      [ Html.details ~summary:(Printf.sprintf "%d counters" (List.length counters))
          (raw_table [ "counter"; "value" ] rows) ]

let gauges_of (s : Snapshot.t) =
  match s.Snapshot.gauges with
  | [] -> []
  | gauges ->
      let rows =
        List.map
          (fun (name, v) ->
            [ Html.text_el "td" name; num_cell (Printf.sprintf "%g" v) ])
          gauges
      in
      [ Html.details ~summary:(Printf.sprintf "%d gauges" (List.length gauges))
          (raw_table [ "gauge"; "value" ] rows) ]

let histograms_of (s : Snapshot.t) =
  List.concat_map
    (fun (name, h) ->
      if h.Snapshot.count = 0 then []
      else
        [
          figure
            (Printf.sprintf "%s — %d observations, sum %.4g s" name
               h.Snapshot.count h.Snapshot.sum)
            (Svg.to_string (Chart.histogram ~title:name h.Snapshot.buckets));
        ])
    s.Snapshot.histograms

(* --- workload CSVs -------------------------------------------------------- *)

let parse_csv contents =
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' contents)
  in
  match lines with
  | [] -> None
  | header :: rows ->
      Some
        ( String.split_on_char ',' header,
          List.map (String.split_on_char ',') rows )

let workload_of (name, contents) =
  match parse_csv contents with
  | None -> [ Html.el "p" ~cls:"muted" (Html.escape (name ^ ": empty CSV")) ]
  | Some (header, rows) ->
      let highlight i =
        match List.nth_opt header i with
        | Some h ->
            let h = String.lowercase_ascii h in
            (* The per-arm service-quality columns a study is read by. *)
            h = "jain_fairness" || h = "fairness"
            || String.length h >= 3
               && String.sub h (String.length h - 3) 3 = "p99"
        | None -> false
      in
      [
        Html.text_el "h3" name;
        Html.table ~highlight ~header rows;
      ]

(* --- served page: journal tail -------------------------------------------- *)

let warn msg = Html.el "div" ~cls:"warn" (Html.escape msg)

let last n xs =
  let len = List.length xs in
  List.filteri (fun i _ -> i >= len - n) xs

let journal_of (path, tail) =
  match tail with
  | Error _ -> missing ("journal yet at " ^ path)
  | Ok (tail : Journal.tail) ->
      let summary =
        Html.kv_table
          [
            ("records", string_of_int (List.length tail.records));
            ( "bytes",
              Printf.sprintf "%d (%d parseable)" tail.bytes tail.good_bytes );
          ]
      in
      let torn =
        if tail.torn then
          [
            warn
              "journal tail is torn (in-flight append or interrupted writer) \
               — trailing bytes ignored";
          ]
        else []
      in
      let recent =
        match last 20 tail.records with
        | [] -> [ Html.el "p" ~cls:"muted" "Journal is empty so far." ]
        | records ->
            let row (key, payload) =
              [
                Html.text_el "td" key;
                num_cell (string_of_int (String.length payload));
              ]
            in
            [
              Html.text_el "h3"
                (Printf.sprintf "Last %d records" (List.length records));
              raw_table [ "key"; "payload bytes" ] (List.map row records);
            ]
      in
      (summary :: torn) @ recent

let served_sections = function
  | None -> []
  | Some s ->
      Html.el "p" ~cls:"muted"
        (Html.escape (Printf.sprintf "Auto-refreshes every %d s." s.refresh_s))
      :: List.map warn s.warnings
      @ Option.fold s.journal ~none:[] ~some:(fun j ->
            section "Journal" (journal_of j))

(* --- assembly ------------------------------------------------------------- *)

let render input =
  let snapshot =
    match input.snapshot with
    | Some s -> Some s
    | None -> Option.bind input.bench (fun b -> b.Report.metrics)
  in
  let bench_sections =
    match input.bench with
    | None -> section "Run" (missing "bench report (BENCH_runtime.json)")
    | Some b ->
        section "Run" [ summary_of b ]
        @ section "Targets" (targets_of b)
  in
  let figure_sections =
    match input.figures with
    | [] -> []
    | figs ->
        section "Figures" (List.map (fun (caption, svg) -> figure caption svg) figs)
  in
  let trace_sections =
    match input.trace with
    | None -> []
    | Some events ->
        section "Trace timeline"
          [
            figure
              (Printf.sprintf "%d trace events." (List.length events))
              (Svg.to_string (Timeline.render ~title:"" events));
          ]
  in
  let metric_sections =
    match snapshot with
    | None -> section "Metrics" (missing "metrics snapshot")
    | Some s ->
        section "Metrics" (counters_of s @ gauges_of s)
        @
        match histograms_of s with
        | [] -> []
        | h -> section "Latency histograms" h
  in
  let workload_sections =
    match input.workloads with
    | [] -> []
    | ws -> section "Workload studies" (List.concat_map workload_of ws)
  in
  let body =
    String.concat "\n"
      ((Html.text_el "h1" input.title :: served_sections input.served)
      @ bench_sections @ figure_sections @ trace_sections @ metric_sections
      @ workload_sections)
  in
  Html.page ~title:input.title
    ?refresh:(Option.map (fun s -> float_of_int s.refresh_s) input.served)
    body
