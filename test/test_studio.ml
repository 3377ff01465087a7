(* Tests for rats_studio: HTML escaping against hostile labels, page
   self-containment, bench report parsing across schema versions, diff
   delta math and comparability warnings, journal torn-tail reading, golden
   report fragments, the served page, the artifact checks behind
   `studio check`, and the HTTP responder's framing and serve loop. *)

module Studio = Rats_studio
module Html = Rats_studio.Html
module Diff = Rats_studio.Diff
module Page = Rats_studio.Page
module Httpd = Rats_studio.Httpd
module Check = Rats_studio.Check
module Json = Rats_obs.Json
module Snapshot = Rats_obs.Snapshot
module Journal = Rats_runtime.Journal
module Report = Rats_runtime.Report

let check = Alcotest.check

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let temp_file contents =
  let path = Filename.temp_file "rats_studio_test" ".json" in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

let with_temp contents f =
  let path = temp_file contents in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* --- Html ----------------------------------------------------------------- *)

let hostile = "<script>alert(\"pwned\")</script> & 'quotes'\x01\x1b"

let test_escape () =
  let e = Html.escape hostile in
  check Alcotest.bool "no raw <" false (contains e "<");
  check Alcotest.bool "no raw >" false (contains e ">");
  check Alcotest.bool "no raw quote" false (contains e "\"");
  check Alcotest.bool "entities" true (contains e "&lt;script&gt;");
  check Alcotest.bool "amp escaped" true (contains e "&amp;");
  check Alcotest.bool "controls stripped" false (contains e "\x01");
  check Alcotest.bool "esc stripped" false (contains e "\x1b");
  check Alcotest.string "tab/newline become spaces" "a b c"
    (Html.escape "a\tb\nc")

let test_page_well_formed () =
  let page = Html.page ~title:hostile (Html.text_el "p" "body") in
  check Alcotest.bool "doctype" true (contains page "<!DOCTYPE html>");
  check Alcotest.bool "closes html" true (contains page "</html>");
  check Alcotest.bool "title escaped" false (contains page hostile);
  (* Self-containment: nothing in a studio page may fetch. *)
  check Alcotest.bool "no script tag" false (contains page "<script");
  check Alcotest.bool "no link tag" false (contains page "<link");
  check Alcotest.bool "no src attr" false (contains page " src=")

let test_table_highlight () =
  let t =
    Html.table ~highlight:(fun i -> i = 1) ~header:[ "a"; "b" ]
      [ [ "x"; "<y>" ] ]
  in
  check Alcotest.bool "highlighted cell" true
    (contains t "<td class=\"hl\">&lt;y&gt;</td>");
  check Alcotest.bool "plain cell" true (contains t "<td>x</td>")

(* --- Bench fixtures ------------------------------------------------------- *)

(* A v1 document: no schema_version, no scale, no metrics. *)
let v1_doc =
  {|{
  "targets": [
    {"label": "fig2", "wall_s": 10.0, "jobs": 2,
     "cache_hits": 0, "cache_misses": 8,
     "failed": 0, "retried": 0, "resumed": 0}
  ]
}|}

(* A v2 document with scale, embedded metrics, and a second target. *)
let v2_doc ?(scale = "smoke") ?(fig2_wall = 11.0) ?(sim_events = 100) () =
  Printf.sprintf
    {|{
  "schema_version": 2,
  "scale": "%s",
  "jobs": 2,
  "total_wall_s": %g,
  "targets": [
    {"label": "fig2", "wall_s": %g, "jobs": 2,
     "cache_hits": 8, "cache_misses": 0,
     "failed": 0, "retried": 0, "resumed": 0},
    {"label": "workload", "wall_s": 2.0, "jobs": 2,
     "cache_hits": 0, "cache_misses": 0,
     "failed": 0, "retried": 0, "resumed": 0}
  ],
  "metrics": {
    "counters": {"sim.events": %d, "cache.hits": 8},
    "gauges": {},
    "histograms": {
      "cache.read_s": {"count": 2, "sum": 0.5,
        "buckets": [{"le": 0.001, "count": 1}, {"le": "+Inf", "count": 2}]}
    }
  }
}|}
    scale (fig2_wall +. 2.0) fig2_wall sim_events

let load_fixture doc f =
  with_temp doc (fun path ->
      match Report.load path with
      | Ok b -> f b
      | Error msg -> Alcotest.failf "fixture load: %s" msg)

let test_bench_versions () =
  load_fixture v1_doc (fun b ->
      check Alcotest.int "v1 version" 1 b.Report.version;
      check Alcotest.bool "v1 no scale" true (b.Report.scale = None);
      check Alcotest.bool "v1 no metrics" true (b.Report.metrics = None);
      check Alcotest.int "v1 targets" 1 (List.length b.Report.targets));
  load_fixture (v2_doc ()) (fun b ->
      check Alcotest.int "v2 version" 2 b.Report.version;
      check (Alcotest.option Alcotest.string) "v2 scale" (Some "smoke")
        b.Report.scale;
      check (Alcotest.option Alcotest.int) "v2 counter" (Some 100)
        (Option.bind b.Report.metrics (fun s ->
             Snapshot.counter s "sim.events"));
      match Report.target b "fig2" with
      | None -> Alcotest.fail "fig2 missing"
      | Some tg -> check Alcotest.int "hits" 8 tg.Report.cache_hits)

let test_bench_tolerant () =
  (* Alien documents parse to an empty report, never raise. *)
  let b = Report.of_json ~path:"x" (Json.Obj [ ("targets", Json.Str "?") ]) in
  check Alcotest.int "alien targets" 0 (List.length b.Report.targets);
  let b = Report.of_json ~path:"x" Json.Null in
  check Alcotest.int "null doc" 0 (List.length b.Report.targets);
  (* An embedded snapshot without its three sections is dropped. *)
  let partial = Json.Obj [ ("counters", Json.Obj []) ] in
  let b = Report.of_json ~path:"x" (Json.Obj [ ("metrics", partial) ]) in
  check Alcotest.bool "partial snapshot" true (b.Report.metrics = None)

(* --- Diff ----------------------------------------------------------------- *)

let test_diff_deltas () =
  load_fixture (v2_doc ~fig2_wall:10.0 ()) (fun a ->
      load_fixture (v2_doc ~fig2_wall:12.0 ()) (fun b ->
          let ds = Diff.targets a b in
          match List.find_opt (fun d -> d.Diff.label = "fig2") ds with
          | None -> Alcotest.fail "fig2 delta missing"
          | Some d ->
              (match d.Diff.pct with
              | None -> Alcotest.fail "pct missing"
              | Some pct ->
                  check (Alcotest.float 1e-6) "pct = +20%" 20.0 pct);
              check Alcotest.bool "no warnings on like runs" true
                (Diff.warnings a b = [])))

let test_diff_one_sided () =
  load_fixture v1_doc (fun a ->
      load_fixture (v2_doc ()) (fun b ->
          let ds = Diff.targets a b in
          (* workload exists only in B. *)
          match List.find_opt (fun d -> d.Diff.label = "workload") ds with
          | None -> Alcotest.fail "B-only target dropped"
          | Some d ->
              check Alcotest.bool "A side absent" true (d.Diff.a = None);
              check Alcotest.bool "no pct one-sided" true (d.Diff.pct = None)))

let test_diff_counters () =
  load_fixture (v2_doc ()) (fun a ->
      load_fixture (v2_doc ~sim_events:150 ())
      @@ fun b ->
      let cs = Diff.counters a b in
      check Alcotest.int "one changed counter" 1 (List.length cs);
      let c = List.hd cs in
      check Alcotest.string "name" "sim.events" c.Diff.name;
      check Alcotest.int "delta" 50 c.Diff.delta;
      let all = Diff.counters ~all:true a b in
      check Alcotest.int "all keeps unchanged" 2 (List.length all))

let test_diff_warnings () =
  (* Scale mismatch: the committed-snapshot-is-smoke-scale trap. *)
  load_fixture (v2_doc ~scale:"smoke" ()) (fun a ->
      load_fixture (v2_doc ~scale:"paper" ()) (fun b ->
          let ws = Diff.warnings a b in
          check Alcotest.bool "scale warning" true
            (List.exists (fun w -> contains w "scale mismatch") ws);
          let text = Diff.to_text a b in
          check Alcotest.bool "warning printed" true
            (contains text "scale mismatch")));
  (* Schema mismatch: v1 baseline vs v2 candidate. *)
  load_fixture v1_doc (fun a ->
      load_fixture (v2_doc ()) (fun b ->
          let ws = Diff.warnings a b in
          check Alcotest.bool "schema warning" true
            (List.exists (fun w -> contains w "schema versions differ") ws);
          check Alcotest.bool "cache warmth warning" true
            (List.exists (fun w -> contains w "warm") ws)))

let test_diff_html () =
  load_fixture (v2_doc ~fig2_wall:10.0 ()) (fun a ->
      load_fixture (v2_doc ~fig2_wall:12.0 ()) (fun b ->
          let html = Diff.to_html a b in
          check Alcotest.bool "regression class" true
            (contains html "class=\"regression\"");
          check Alcotest.bool "self-contained" false (contains html "<script")))

(* --- journal tailing ------------------------------------------------------ *)

let journal_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rats_studio_journal_%d_%d" (Unix.getpid ()) !counter)

let test_journal_tail () =
  let dir = journal_dir () in
  let j = Journal.open_ ~dir ~name:"tail-test" ~resume:false () in
  Journal.append j ~key:"k1" "payload one";
  Journal.append j ~key:"k2" "payload\ntwo";
  let path = Journal.path j in
  (* Tail while the writer still has the file open: clean prefix. *)
  (match Journal.read_tail path with
  | Error msg -> Alcotest.failf "tail: %s" msg
  | Ok t ->
      check Alcotest.int "records" 2 (List.length t.Journal.records);
      check Alcotest.bool "not torn" false t.Journal.torn;
      check Alcotest.int "prefix covers file" t.Journal.bytes
        t.Journal.good_bytes;
      check (Alcotest.option Alcotest.string) "payload kept"
        (Some "payload\ntwo")
        (List.assoc_opt "k2" t.Journal.records));
  (* Simulate a torn append: garbage at the end of the file. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "deadbeef 4 9\nk3incompl";
  close_out oc;
  (match Journal.read_tail path with
  | Error msg -> Alcotest.failf "torn tail: %s" msg
  | Ok t ->
      check Alcotest.int "records survive tear" 2 (List.length t.Journal.records);
      check Alcotest.bool "torn flagged" true t.Journal.torn;
      check Alcotest.bool "good < bytes" true
        (t.Journal.good_bytes < t.Journal.bytes));
  Journal.close j;
  (* Not a journal at all. *)
  with_temp "not a journal\n" (fun p ->
      match Journal.read_tail p with
      | Error msg -> check Alcotest.bool "bad header named" true (contains msg "header")
      | Ok _ -> Alcotest.fail "bad header accepted")

(* --- report page ---------------------------------------------------------- *)

let test_report_golden () =
  load_fixture (v2_doc ()) (fun b ->
      let input =
        {
          (Page.empty ~title:"golden") with
          Page.bench = Some b;
          workloads =
            [
              ( "study.csv",
                "profile,arm,sojourn_p99,jain_fairness\nweb,fifo,0.5,0.91\n" );
            ];
        }
      in
      let html = Page.render input in
      (* Golden fragments: every section the fixture feeds must surface. *)
      List.iter
        (fun frag ->
          check Alcotest.bool ("contains " ^ frag) true (contains html frag))
        [
          "<h2>Run</h2>";
          "<h2>Targets</h2>";
          "<td>fig2</td>";
          "wall time per target";
          "<svg";
          "sim.events";
          "cache.read_s";
          "study.csv";
          "<th class=\"hl\">sojourn_p99</th>";
          "<th class=\"hl\">jain_fairness</th>";
        ];
      check Alcotest.bool "no external fetches" false (contains html "<script"))

let test_report_hostile_labels () =
  let doc =
    {|{"schema_version": 2, "scale": "x",
       "targets": [{"label": "<img src=x onerror=alert(1)>", "wall_s": 1.0,
                    "jobs": 1, "cache_hits": 0, "cache_misses": 0,
                    "failed": 0, "retried": 0, "resumed": 0}]}|}
  in
  load_fixture doc (fun b ->
      let html =
        Page.render { (Page.empty ~title:"t") with Page.bench = Some b }
      in
      check Alcotest.bool "label defanged" false (contains html "<img");
      check Alcotest.bool "label present escaped" true
        (contains html "&lt;img"))

let test_report_empty_inputs () =
  let html = Page.render (Page.empty ~title:"empty") in
  check Alcotest.bool "bench placeholder" true
    (contains html "No bench report");
  check Alcotest.bool "metrics placeholder" true
    (contains html "No metrics snapshot")

(* --- served page ----------------------------------------------------------- *)

let test_served_page () =
  let served journal warnings =
    Some
      {
        Page.refresh_s = 2;
        journal = Option.map (fun p -> (p, Journal.read_tail p)) journal;
        warnings;
      }
  in
  let html =
    Page.render
      {
        (Page.empty ~title:"live") with
        Page.served = served (Some "/nonexistent/journal") [];
      }
  in
  check Alcotest.bool "placeholder for missing journal" true
    (contains html "No journal yet at /nonexistent/journal.");
  check Alcotest.bool "meta refresh when served" true
    (contains html "http-equiv=\"refresh\"");
  (* A journal whose last append was cut short. *)
  let j = Journal.open_ ~dir:(journal_dir ()) ~name:"served" ~resume:false () in
  Journal.append j ~key:"k1" "payload one";
  let journal = Journal.path j in
  Journal.close j;
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 journal in
  output_string oc "deadbeef 4 9\nk2incompl";
  close_out oc;
  with_temp (v2_doc ()) (fun bench ->
      let input, warnings =
        Page.load ~title:"live" ~bench ~metrics:"/nonexistent/metrics.json" ()
      in
      check Alcotest.bool "bench loads" true (input.Page.bench <> None);
      check Alcotest.bool "missing snapshot warned, naming the file" true
        (List.exists (fun w -> contains w "/nonexistent/metrics.json") warnings);
      let html =
        Page.render { input with Page.served = served (Some journal) warnings }
      in
      List.iter
        (fun frag ->
          check Alcotest.bool ("served page has " ^ frag) true
            (contains html frag))
        [
          "<h2>Journal</h2>";
          "<td>k1</td>";
          "journal tail is torn";
          "/nonexistent/metrics.json";
          "<td>fig2</td>";
          "http-equiv=\"refresh\"";
        ];
      let static = Page.render input in
      check Alcotest.bool "static page has the bench row" true
        (contains static "<td>fig2</td>");
      check Alcotest.bool "no refresh unless served" false
        (contains static "http-equiv");
      check Alcotest.bool "no journal unless served" false
        (contains static "<h2>Journal</h2>"))

(* --- check ---------------------------------------------------------------- *)

let full_snapshot () =
  List.fold_left
    (fun (s : Snapshot.t) (name, need) ->
      match need with
      | Check.Counter_present | Check.Counter_positive ->
          { s with Snapshot.counters = (name, 1) :: s.Snapshot.counters }
      | Check.Histogram_observed ->
          let h = { Snapshot.count = 1; sum = 0.1; buckets = [] } in
          { s with Snapshot.histograms = (name, h) :: s.Snapshot.histograms })
    Snapshot.empty Check.bench_requirements

let test_check_bench_counters () =
  let full = full_snapshot () in
  check Alcotest.bool "complete snapshot passes" true
    (Check.bench_counters full = Ok ());
  let fails_naming what name (s : Snapshot.t) =
    match Check.bench_counters s with
    | Ok () -> Alcotest.failf "%s %s accepted" what name
    | Error msg ->
        check Alcotest.bool (what ^ " " ^ name ^ " named") true
          (contains msg name)
  in
  List.iter
    (fun (name, need) ->
      let drop l = List.remove_assoc name l in
      fails_naming "missing" name
        {
          full with
          Snapshot.counters = drop full.Snapshot.counters;
          histograms = drop full.Snapshot.histograms;
        };
      let zeroed =
        match need with
        | Check.Counter_present | Check.Counter_positive ->
            {
              full with
              Snapshot.counters =
                (name, 0) :: List.remove_assoc name full.Snapshot.counters;
            }
        | Check.Histogram_observed ->
            let h = { Snapshot.count = 0; sum = 0.; buckets = [] } in
            {
              full with
              Snapshot.histograms =
                (name, h) :: List.remove_assoc name full.Snapshot.histograms;
            }
      in
      match need with
      | Check.Counter_present ->
          check Alcotest.bool (name ^ " may be zero") true
            (Check.bench_counters zeroed = Ok ())
      | Check.Counter_positive | Check.Histogram_observed ->
          fails_naming "zero" name zeroed)
    Check.bench_requirements

let test_check_files () =
  let sections = [ "counters"; "gauges"; "histograms" ] in
  let doc present =
    "{"
    ^ String.concat ","
        (List.map (fun s -> Printf.sprintf "%S: {}" s) present)
    ^ "}"
  in
  with_temp (doc sections) (fun path ->
      check Alcotest.bool "all three sections" true
        (Result.is_ok (Snapshot.of_file path)));
  List.iter
    (fun missing ->
      with_temp
        (doc (List.filter (( <> ) missing) sections))
        (fun path ->
          match Snapshot.of_file path with
          | Ok _ -> Alcotest.failf "snapshot without %s accepted" missing
          | Error msg ->
              check Alcotest.bool ("without " ^ missing ^ " names the file")
                true (contains msg path)))
    sections;
  with_temp {|{"traceEvents": [{"ph": "X", "ts": 0}]}|} (fun path ->
      match Check.trace path with
      | Ok _ -> Alcotest.fail "malformed trace accepted"
      | Error msg ->
          check Alcotest.bool "error names the file" true (contains msg path));
  with_temp {|{"traceEvents": []}|} (fun path ->
      check Alcotest.bool "empty trace accepted" true
        (Check.trace path = Ok []))

(* --- httpd ---------------------------------------------------------------- *)

let test_response_framing () =
  let r = Httpd.response "<p>hi</p>" in
  check Alcotest.bool "status line" true
    (contains r "HTTP/1.1 200 OK\r\n");
  check Alcotest.bool "length" true (contains r "Content-Length: 9\r\n");
  check Alcotest.bool "close" true (contains r "Connection: close\r\n");
  check Alcotest.bool "body after blank line" true (contains r "\r\n\r\n<p>hi</p>");
  let r = Httpd.response ~status:(404, "Not Found") "" in
  check Alcotest.bool "custom status" true (contains r "404 Not Found")

let test_serve_loop () =
  (* Serve exactly two requests on an ephemeral port from a thread; the
     client side runs in the test thread. *)
  let port = ref 0 in
  let m = Mutex.create () and c = Condition.create () in
  let server =
    Thread.create
      (fun () ->
        Httpd.serve ~port:0 ~max_requests:2
          ~on_listen:(fun p ->
            Mutex.lock m;
            port := p;
            Condition.signal c;
            Mutex.unlock m)
          (fun path -> Html.page ~title:"srv" (Html.text_el "p" path)))
      ()
  in
  Mutex.lock m;
  while !port = 0 do
    Condition.wait c m
  done;
  let p = !port in
  Mutex.unlock m;
  let fetch path =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", p));
        let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n\r\n" path in
        ignore (Unix.write_substring fd req 0 (String.length req));
        let buf = Buffer.create 1024 in
        let chunk = Bytes.create 1024 in
        let rec go () =
          match Unix.read fd chunk 0 1024 with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              go ()
        in
        go ();
        Buffer.contents buf)
  in
  let r1 = fetch "/" in
  check Alcotest.bool "served html" true (contains r1 "<p>/</p>");
  let r2 = fetch "/again" in
  check Alcotest.bool "path handed to handler" true (contains r2 "/again");
  (* max_requests reached: serve returns and the thread joins. *)
  Thread.join server

(* --- suite ---------------------------------------------------------------- *)

let () =
  Alcotest.run "studio"
    [
      ( "html",
        [
          Alcotest.test_case "escape hostile strings" `Quick test_escape;
          Alcotest.test_case "page well-formed + self-contained" `Quick
            test_page_well_formed;
          Alcotest.test_case "table column highlight" `Quick
            test_table_highlight;
        ] );
      ( "bench",
        [
          Alcotest.test_case "v1 and v2 schemas load" `Quick
            test_bench_versions;
          Alcotest.test_case "alien documents tolerated" `Quick
            test_bench_tolerant;
        ] );
      ( "diff",
        [
          Alcotest.test_case "wall-time delta math" `Quick test_diff_deltas;
          Alcotest.test_case "one-sided targets kept" `Quick
            test_diff_one_sided;
          Alcotest.test_case "counter deltas" `Quick test_diff_counters;
          Alcotest.test_case "comparability warnings" `Quick
            test_diff_warnings;
          Alcotest.test_case "html diff highlights" `Quick test_diff_html;
        ] );
      ( "journal",
        [ Alcotest.test_case "read_tail torn + clean" `Quick test_journal_tail ] );
      ( "report",
        [
          Alcotest.test_case "golden fragments" `Quick test_report_golden;
          Alcotest.test_case "hostile labels escaped" `Quick
            test_report_hostile_labels;
          Alcotest.test_case "empty inputs placeholder" `Quick
            test_report_empty_inputs;
          Alcotest.test_case "served page journal and refresh" `Quick
            test_served_page;
        ] );
      ( "check",
        [
          Alcotest.test_case "bench counters named" `Quick
            test_check_bench_counters;
          Alcotest.test_case "snapshot sections and trace decoding" `Quick
            test_check_files;
        ] );
      ( "httpd",
        [
          Alcotest.test_case "response framing" `Quick test_response_framing;
          Alcotest.test_case "serve loop end-to-end" `Quick test_serve_loop;
        ] );
    ]
