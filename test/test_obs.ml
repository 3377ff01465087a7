(* Tests for rats_obs: the JSON codec, span recording with a fake clock,
   Chrome export parse-back, histogram bucket boundaries, counter atomicity
   under pooled execution, the nil-sink contract, atomic file writes, the
   BENCH_runtime.json round-trip and the Timeline renderer. *)

module Json = Rats_obs.Json
module Trace = Rats_obs.Trace
module Metrics = Rats_obs.Metrics
module Pool = Rats_runtime.Pool
module Report = Rats_runtime.Report

let check = Alcotest.check

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- Json ---------------------------------------------------------------- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("a", Json.Num 1.);
        ("b", Json.Str "x \"quoted\"\nline");
        ("c", Json.Arr [ Json.Bool true; Json.Null; Json.Num (-2.5) ]);
        ("empty", Json.Obj []);
      ]
  in
  match Json.parse (Json.to_string doc) with
  | Error msg -> Alcotest.failf "re-parse failed: %s" msg
  | Ok doc' -> check Alcotest.bool "round-trips" true (doc = doc')

let test_json_escapes () =
  (match Json.parse {|"\u0041\t\\"|} with
  | Ok (Json.Str s) -> check Alcotest.string "unicode + escapes" "A\t\\" s
  | _ -> Alcotest.fail "escape parse failed");
  match Json.parse "{\"a\": 1,}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing comma accepted"

let test_json_non_finite () =
  (* Numbers that overflow to an infinity have no JSON spelling. *)
  List.iter
    (fun doc ->
      match Json.parse doc with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "non-finite number accepted: %s" doc)
    [ "1e999"; "-1e999"; {|{"at": 1e999}|} ];
  match Json.parse "1e-999" with
  | Ok (Json.Num v) -> check (Alcotest.float 0.) "underflow is zero" 0. v
  | _ -> Alcotest.fail "underflowing number rejected"

(* The number formatter [Json.to_string] used while it went through
   [Printf]; the C primitive it calls now must print every float the same. *)
let printf_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let test_json_number_format () =
  List.iter
    (fun v ->
      check Alcotest.string (Printf.sprintf "%h" v) (printf_num v)
        (Json.to_string (Json.Num v)))
    [
      0.; -0.; 1.; -1.; 0.1; -2.5; 1e-7; 123456789.125;
      1e15 -. 1.; Float.pred 1e15; 999999999999999.5; 1e15; Float.succ 1e15;
      1e15 +. 1.; -.(1e15 -. 1.); -1e15; 4503599627370496.; 9007199254740993.;
      Float.min_float; Float.pred Float.min_float; 5e-324; -5e-324;
      Float.max_float; -.Float.max_float; infinity; neg_infinity; nan;
      Int64.float_of_bits 0xFFF8000000000001L;
    ]

let qcheck_json_number_format =
  QCheck.Test.make ~count:5000 ~name:"json numbers print as Printf did"
    QCheck.int64
    (fun bits ->
      let v = Int64.float_of_bits bits in
      Json.to_string (Json.Num v) = printf_num v)

let test_json_accessors () =
  match Json.parse {|{"xs": [1, 2, 3], "name": "n"}|} with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok doc ->
      let xs = Option.get (Option.bind (Json.member "xs" doc) Json.to_list) in
      check (Alcotest.list Alcotest.int) "xs" [ 1; 2; 3 ]
        (List.filter_map Json.to_int xs);
      check (Alcotest.option Alcotest.string) "name" (Some "n")
        (Option.bind (Json.member "name" doc) Json.to_str);
      check (Alcotest.option Alcotest.int) "absent" None
        (Option.bind (Json.member "missing" doc) Json.to_int)

(* --- Trace with a deterministic clock ------------------------------------ *)

(* A clock the test advances by hand, in microseconds. *)
let fake_clock () =
  let now = ref 0. in
  ((fun () -> !now), fun dt -> now := !now +. dt)

let test_span_nesting () =
  let clock, advance = fake_clock () in
  let t = Trace.create ~clock () in
  Trace.span_on t "outer" (fun () ->
      advance 10.;
      Trace.span_on t "inner" ~cat:"test" (fun () -> advance 5.);
      Trace.instant_on t "mark";
      advance 3.);
  match Trace.events t with
  | [ outer; inner; mark ] ->
      check Alcotest.string "outer first" "outer" outer.Trace.name;
      check (Alcotest.float 1e-9) "outer ts" 0. outer.Trace.ts;
      check (Alcotest.float 1e-9) "outer dur" 18. outer.Trace.dur;
      check Alcotest.string "inner second" "inner" inner.Trace.name;
      check (Alcotest.float 1e-9) "inner ts" 10. inner.Trace.ts;
      check (Alcotest.float 1e-9) "inner dur" 5. inner.Trace.dur;
      check Alcotest.string "inner cat" "test" inner.Trace.cat;
      check Alcotest.string "instant last" "mark" mark.Trace.name;
      check (Alcotest.float 1e-9) "instant ts" 15. mark.Trace.ts;
      check Alcotest.bool "instant phase" true (mark.Trace.phase = `Instant)
  | events -> Alcotest.failf "expected 3 events, got %d" (List.length events)

let test_span_records_on_raise () =
  let clock, advance = fake_clock () in
  let t = Trace.create ~clock () in
  (try
     Trace.span_on t "failing" (fun () ->
         advance 7.;
         failwith "boom")
   with Failure _ -> ());
  match Trace.events t with
  | [ e ] ->
      check Alcotest.string "span recorded" "failing" e.Trace.name;
      check (Alcotest.float 1e-9) "duration up to the raise" 7. e.Trace.dur
  | events -> Alcotest.failf "expected 1 event, got %d" (List.length events)

let test_chrome_parse_back () =
  let clock, advance = fake_clock () in
  let t = Trace.create ~clock () in
  Trace.span_on t "work" ~cat:"c"
    ~args:(fun () -> [ ("key", "value \"quoted\"") ])
    (fun () -> advance 2.);
  Trace.instant_on t "tick";
  match Json.parse (Trace.to_chrome_json t) with
  | Error msg -> Alcotest.failf "chrome json does not parse: %s" msg
  | Ok doc -> (
      let events =
        Option.get (Option.bind (Json.member "traceEvents" doc) Json.to_list)
      in
      check Alcotest.int "two events" 2 (List.length events);
      match events with
      | [ span; instant ] ->
          let str name j =
            Option.bind (Json.member name j) Json.to_str
          in
          check (Alcotest.option Alcotest.string) "ph X" (Some "X")
            (str "ph" span);
          check (Alcotest.option Alcotest.string) "name" (Some "work")
            (str "name" span);
          check (Alcotest.option Alcotest.string) "arg survives escaping"
            (Some "value \"quoted\"")
            (Option.bind (Json.member "args" span) (str "key"));
          check (Alcotest.option Alcotest.int) "dur" (Some 2)
            (Option.bind (Json.member "dur" span) Json.to_int);
          check (Alcotest.option Alcotest.string) "ph i" (Some "i")
            (str "ph" instant)
      | _ -> Alcotest.fail "unexpected event shapes")

(* --- Nil sink ------------------------------------------------------------ *)

let test_disabled_path () =
  Trace.uninstall ();
  check Alcotest.bool "disabled" false (Trace.is_enabled ());
  let args_evaluated = ref false in
  let r =
    Trace.span "untraced"
      ~args:(fun () ->
        args_evaluated := true;
        [])
      (fun () -> 42)
  in
  Trace.instant "untraced-instant" ~args:(fun () ->
      args_evaluated := true;
      []);
  check Alcotest.int "value passes through" 42 r;
  check Alcotest.bool "args closure never evaluated" false !args_evaluated;
  (* And when installed, module-level recording reaches the tracer. *)
  let clock, advance = fake_clock () in
  let t = Trace.create ~clock () in
  Trace.install t;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      Trace.span "traced" (fun () -> advance 1.));
  check Alcotest.int "recorded when installed" 1 (List.length (Trace.events t))

(* --- Histogram buckets --------------------------------------------------- *)

let test_histogram_buckets () =
  check Alcotest.int "1µs lands in bucket 0" 0 (Metrics.bucket_index 1e-6);
  check Alcotest.int "below 1µs lands in bucket 0" 0 (Metrics.bucket_index 1e-9);
  (* Upper bounds are inclusive; just above goes one bucket up. *)
  check Alcotest.int "2µs in bucket 1" 1 (Metrics.bucket_index 2e-6);
  check Alcotest.int "2µs+eps in bucket 2" 2 (Metrics.bucket_index 2.01e-6);
  check Alcotest.int "1ms bucket" 10 (Metrics.bucket_index 1.024e-3);
  check Alcotest.int "1h overflows" 32 (Metrics.bucket_index 3600.);
  check (Alcotest.float 1e-18) "bucket 0 upper" 1e-6 (Metrics.bucket_upper 0);
  check (Alcotest.float 1e-12) "bucket 10 upper" 1.024e-3
    (Metrics.bucket_upper 10);
  check Alcotest.bool "overflow upper" true (Metrics.bucket_upper 32 = infinity);
  let h = Metrics.histogram "test_obs_hist_seconds" in
  List.iter (Metrics.observe h) [ 1e-6; 2e-6; 2e-6; 1.5; 9999. ];
  check Alcotest.int "count" 5 (Metrics.hist_count h);
  check (Alcotest.float 1e-6) "sum" 10000.500005 (Metrics.hist_sum h);
  let nonzero =
    List.filter (fun (_, c) -> c > 0) (Metrics.bucket_counts h)
  in
  check Alcotest.int "four occupied buckets" 4 (List.length nonzero);
  check
    (Alcotest.list Alcotest.int)
    "bucket counts" [ 1; 2; 1; 1 ]
    (List.map snd nonzero)

(* --- Counter atomicity under the pool ------------------------------------ *)

let test_counter_atomicity () =
  let c = Metrics.counter "test_obs_atomic_total" in
  List.iter
    (fun jobs ->
      let before = Metrics.counter_value c in
      let n = 500 in
      ignore
        (Pool.map ~jobs
           (fun _ ->
             Metrics.incr c;
             Metrics.add c 2)
           (List.init n Fun.id));
      check Alcotest.int
        (Printf.sprintf "no lost updates at jobs=%d" jobs)
        (3 * n)
        (Metrics.counter_value c - before))
    [ 2; 4 ]

let test_gauge_max () =
  let g = Metrics.gauge "test_obs_gauge" in
  Metrics.observe_max g 3.;
  Metrics.observe_max g 1.;
  check (Alcotest.float 1e-9) "keeps max" 3. (Metrics.gauge_value g);
  Metrics.set g 0.5;
  check (Alcotest.float 1e-9) "set overrides" 0.5 (Metrics.gauge_value g)

(* --- Snapshot formats ----------------------------------------------------- *)

let test_snapshot_formats () =
  let c = Metrics.counter "test_obs_snapshot_total" in
  Metrics.incr c;
  (match Json.parse (Metrics.to_json ()) with
  | Error msg -> Alcotest.failf "snapshot JSON invalid: %s" msg
  | Ok doc ->
      let v =
        Option.bind (Json.member "counters" doc) (fun cs ->
            Option.bind (Json.member "test_obs_snapshot_total" cs) Json.to_int)
      in
      check Alcotest.bool "counter appears" true (match v with Some n -> n >= 1 | None -> false));
  let prom = Metrics.to_prometheus () in
  let has_line needle =
    List.exists
      (fun line ->
        String.length line >= String.length needle
        && String.sub line 0 (String.length needle) = needle)
      (String.split_on_char '\n' prom)
  in
  check Alcotest.bool "TYPE line" true
    (has_line "# TYPE test_obs_snapshot_total counter");
  check Alcotest.bool "value line" true (has_line "test_obs_snapshot_total ");
  check Alcotest.bool "histogram buckets" true
    (has_line "test_obs_hist_seconds_bucket{le=\"1e-06\"}")

(* --- Atomic file writes ----------------------------------------------------- *)

(* Writing onto a path that is a directory fails at the rename; the temp
   file beside it must be gone afterwards. *)
let test_atomic_write_cleanup () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rats_obs_atomic_%d" (Unix.getpid ()))
  in
  let blocked = Filename.concat dir "blocked" in
  let listing () = List.sort String.compare (Array.to_list (Sys.readdir dir)) in
  Unix.mkdir dir 0o755;
  Unix.mkdir blocked 0o755;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f ->
          let f = Filename.concat dir f in
          if Sys.is_directory f then Unix.rmdir f else Sys.remove f)
        (listing ());
      Unix.rmdir dir)
    (fun () ->
      let fails what write =
        match write blocked with
        | () -> Alcotest.failf "%s onto a directory succeeded" what
        | exception Sys_error _ ->
            check
              (Alcotest.list Alcotest.string)
              (what ^ " left no temp file") [ "blocked" ] (listing ())
      in
      fails "Metrics.write_json" Metrics.write_json;
      fails "Trace.write_chrome" (Trace.write_chrome (Trace.create ()));
      let ok = Filename.concat dir "ok.json" in
      Metrics.write_json ok;
      check Alcotest.bool "a good write lands" true
        (Result.is_ok (Rats_obs.Snapshot.of_file ok));
      check
        (Alcotest.list Alcotest.string)
        "and leaves only its file" [ "blocked"; "ok.json" ] (listing ()))

(* --- Report round-trip ---------------------------------------------------- *)

let test_report_schema_version () =
  let dir = Filename.get_temp_dir_name () in
  let path =
    Filename.concat dir (Printf.sprintf "rats_report_%d.json" (Unix.getpid ()))
  in
  let report = Report.create ~scale:"smoke" ~jobs:3 () in
  Report.record report ~label:"fig2" ~wall_s:1.5 ~cache_hits:1 ~cache_misses:2 ();
  Report.record report ~label:"odd \"label\"\n" ~wall_s:0.25 ~cache_hits:0
    ~cache_misses:4 ~failed:1 ~retried:2 ~resumed:3 ();
  Report.write report path;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let text = In_channel.with_open_bin path In_channel.input_all in
      (* The layout tools grep and sed: keys, key order, number formats. *)
      check Alcotest.bool "document head" true
        (String.starts_with
           ~prefix:
             "{\n  \"schema_version\": 2,\n  \"scale\": \"smoke\",\n  \
              \"jobs\": 3,\n  \"total_wall_s\": 1.750,\n"
           text);
      check Alcotest.bool "target line" true
        (contains text
           "    { \"label\": \"fig2\", \"wall_s\": 1.500, \"jobs\": 3, \
            \"cache_hits\": 1, \"cache_misses\": 2, \"failed\": 0, \
            \"retried\": 0, \"resumed\": 0 },\n");
      match Report.load path with
      | Error msg -> Alcotest.failf "load: %s" msg
      | Ok doc ->
          check Alcotest.int "current version" Report.schema_version
            doc.Report.version;
          check (Alcotest.option Alcotest.string) "scale" (Some "smoke")
            doc.Report.scale;
          check (Alcotest.option Alcotest.int) "jobs" (Some 3) doc.Report.jobs;
          check
            (Alcotest.option (Alcotest.float 0.))
            "total wall" (Some 1.75) doc.Report.total_wall_s;
          check Alcotest.bool "targets round-trip" true
            (doc.Report.targets
            = [
                {
                  Report.label = "fig2";
                  wall_s = 1.5;
                  jobs = 3;
                  cache_hits = 1;
                  cache_misses = 2;
                  failed = 0;
                  retried = 0;
                  resumed = 0;
                };
                {
                  label = "odd \"label\"\n";
                  wall_s = 0.25;
                  jobs = 3;
                  cache_hits = 0;
                  cache_misses = 4;
                  failed = 1;
                  retried = 2;
                  resumed = 3;
                };
              ]);
          check Alcotest.bool "metrics embedded" true
            (doc.Report.metrics <> None);
          (* A pre-versioning document reads as version 1. *)
          let v1 = Json.Obj [ ("scale", Json.Str "smoke") ] in
          check Alcotest.int "absent field means v1" 1
            (Report.of_json ~path:"v1" v1).Report.version)

(* --- Timeline rendering --------------------------------------------------- *)

let test_timeline_render () =
  let clock, advance = fake_clock () in
  let t = Trace.create ~clock () in
  Trace.span_on t "outer" ~cat:"pool" (fun () ->
      advance 100.;
      Trace.span_on t "nested" ~cat:"cache" (fun () -> advance 40.);
      Trace.instant_on t "fault");
  let svg = Rats_viz.Svg.to_string (Rats_viz.Timeline.render (Trace.events t)) in
  check Alcotest.bool "has rects" true (contains svg "<rect");
  check Alcotest.bool "labels the lane" true (contains svg ">d0<");
  check Alcotest.bool "empty trace renders" true
    (contains (Rats_viz.Svg.to_string (Rats_viz.Timeline.render [])) "<svg")

let () =
  Alcotest.run "rats_obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "non-finite numbers" `Quick test_json_non_finite;
          Alcotest.test_case "number format" `Quick test_json_number_format;
          Rats_test_support.Seeded.to_alcotest qcheck_json_number_format;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "span on raise" `Quick test_span_records_on_raise;
          Alcotest.test_case "chrome parse-back" `Quick test_chrome_parse_back;
          Alcotest.test_case "nil sink" `Quick test_disabled_path;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "counter atomicity" `Quick test_counter_atomicity;
          Alcotest.test_case "gauge max" `Quick test_gauge_max;
          Alcotest.test_case "snapshot formats" `Quick test_snapshot_formats;
        ] );
      ( "file",
        [
          Alcotest.test_case "atomic write leaves no temp file" `Quick
            test_atomic_write_cleanup;
        ] );
      ( "report",
        [
          Alcotest.test_case "schema version" `Quick test_report_schema_version;
        ] );
      ( "timeline",
        [ Alcotest.test_case "renders spans" `Quick test_timeline_render ] );
    ]
