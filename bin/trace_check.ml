(* trace_check: validate the files written by --trace / --metrics.

   Parses a Chrome trace-event document and (optionally) a metrics snapshot
   with the in-repo JSON parser, checks their shape, and exits nonzero with
   a diagnostic on the first violation — the machine end of the traced run
   in `make studio-smoke`.

   Examples:
     dune exec bin/trace_check.exe -- --trace t.json
     dune exec bin/trace_check.exe -- --trace t.json --metrics m.json \
       --require-bench-counters --svg timeline.svg *)

open Cmdliner
module Json = Rats_obs.Json
module Trace = Rats_obs.Trace

let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt

let ( let* ) = Result.bind

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> Ok contents
  | exception Sys_error msg -> Error msg

let parse_file path =
  let* contents = read_file path in
  match Json.parse contents with
  | Ok json -> Ok json
  | Error msg -> fail "%s: %s" path msg

(* --- Chrome trace validation -------------------------------------------- *)

(* The decoder itself lives in {!Trace.events_of_json}, shared with the
   studio report generator; this wrapper only prefixes the file name. *)
let validate_trace path =
  let* json = parse_file path in
  match Trace.events_of_json json with
  | Ok events -> Ok events
  | Error msg -> fail "%s: %s" path msg

(* --- Metrics validation ------------------------------------------------- *)

let counter metrics name =
  Option.bind (Json.member "counters" metrics) (fun c ->
      Option.bind (Json.member name c) Json.to_int)

let histogram_count metrics name =
  Option.bind (Json.member "histograms" metrics) (fun h ->
      Option.bind (Json.member name h) (fun m ->
          Option.bind (Json.member "count" m) Json.to_int))

let validate_metrics path =
  let* json = parse_file path in
  let* () =
    match
      ( Json.member "counters" json,
        Json.member "gauges" json,
        Json.member "histograms" json )
    with
    | Some (Json.Obj _), Some (Json.Obj _), Some (Json.Obj _) -> Ok ()
    | _ -> fail "%s: missing counters/gauges/histograms objects" path
  in
  Ok json

(* The counters a bench-harness run must have moved (or at least
   registered): the acceptance contract of `make studio-smoke`'s traced
   run. *)
let check_bench_counters metrics =
  let require_positive name =
    match counter metrics name with
    | Some n when n > 0 -> Ok ()
    | Some n -> fail "counter %s is %d, expected > 0" name n
    | None -> fail "counter %s missing" name
  in
  let require_present name =
    match counter metrics name with
    | Some _ -> Ok ()
    | None -> fail "counter %s missing" name
  in
  let require_hist name =
    match histogram_count metrics name with
    | Some n when n > 0 -> Ok ()
    | Some _ -> fail "histogram %s recorded no observations" name
    | None -> fail "histogram %s missing" name
  in
  let* () = require_positive "rats_sim_events_total" in
  (* A cold run has no hits; presence is what matters. *)
  let* () = require_present "rats_cache_hits_total" in
  let* () = require_positive "rats_cache_misses_total" in
  let* () = require_hist "rats_cache_read_seconds" in
  let* () = require_hist "rats_cache_write_seconds" in
  (* Steals need >1 worker; a serial run legitimately reports 0. *)
  let* () = require_present "rats_pool_steals_total" in
  let* () = require_positive "rats_pool_tasks_total" in
  let* () =
    List.fold_left
      (fun acc strategy ->
        let* () = acc in
        let* () =
          require_present (Printf.sprintf "rats_map_%s_packed_total" strategy)
        in
        require_present (Printf.sprintf "rats_map_%s_stretched_total" strategy))
      (Ok ())
      [ "delta"; "time_cost" ]
  in
  (* Both redistribution-aware strategies must have eliminated something
     over a whole suite sweep. *)
  List.fold_left
    (fun acc strategy ->
      let* () = acc in
      require_positive
        (Printf.sprintf "rats_map_%s_redistributions_eliminated_total" strategy))
    (Ok ())
    [ "delta"; "time_cost" ]

(* --- Driver ------------------------------------------------------------- *)

let run trace metrics require_bench svg =
  let result =
    let* events = validate_trace trace in
    Printf.printf "%s: %d events ok\n" trace (List.length events);
    let* () =
      match metrics with
      | None ->
          if require_bench then
            fail "--require-bench-counters needs --metrics"
          else Ok ()
      | Some path ->
          let* m = validate_metrics path in
          Printf.printf "%s: well-formed snapshot\n" path;
          if require_bench then (
            let* () = check_bench_counters m in
            Printf.printf "%s: bench counters ok\n" path;
            Ok ())
          else Ok ()
    in
    match svg with
    | None -> Ok ()
    | Some out ->
        Rats_viz.Timeline.save events ~path:out
          ~title:(Printf.sprintf "trace timeline (%s)" trace);
        Printf.printf "timeline written to %s\n" out;
        Ok ()
  in
  match result with
  | Ok () -> 0
  | Error msg ->
      Printf.eprintf "trace_check: %s\n" msg;
      1

let trace_term =
  Arg.(
    required
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE" ~doc:"Chrome trace-event file to validate.")

let metrics_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE" ~doc:"Metrics JSON snapshot to validate.")

let require_term =
  Arg.(
    value & flag
    & info [ "require-bench-counters" ]
        ~doc:
          "Fail unless the snapshot shows the counters a bench run must \
           move: simulator events, cache hits/misses with read/write \
           latency histograms, pool task/steal counters, and per-strategy \
           pack/stretch counters with eliminated redistributions.")

let svg_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "svg" ] ~docv:"FILE"
        ~doc:"Also render the trace as an SVG timeline to $(docv).")

let cmd =
  Cmd.v
    (Cmd.info "trace_check" ~doc:"Validate --trace / --metrics output files")
    Term.(const run $ trace_term $ metrics_term $ require_term $ svg_term)

let () = exit (Cmd.eval' cmd)
