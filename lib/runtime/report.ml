module Json = Rats_obs.Json
module Snapshot = Rats_obs.Snapshot

(* Version history:
   1 — implicit (no [schema_version] field): targets + cache + faults.
   2 — adds [schema_version] and the embedded metrics registry snapshot. *)
let schema_version = 2

type target = {
  label : string;
  wall_s : float;
  jobs : int;
  cache_hits : int;
  cache_misses : int;
  failed : int;
  retried : int;
  resumed : int;
}

(* --- writing -------------------------------------------------------------- *)

type t = { scale : string; jobs : int; mutable targets : target list }

let create ~scale ~jobs () = { scale; jobs; targets = [] }

let record t ~label ~wall_s ~cache_hits ~cache_misses ?(failed = 0)
    ?(retried = 0) ?(resumed = 0) () =
  t.targets <-
    {
      label;
      wall_s;
      jobs = t.jobs;
      cache_hits;
      cache_misses;
      failed;
      retried;
      resumed;
    }
    :: t.targets

let write t path =
  let targets = List.rev t.targets in
  let total_wall = List.fold_left (fun a tg -> a +. tg.wall_s) 0. targets in
  let sum f = List.fold_left (fun a tg -> a + f tg) 0 targets in
  let hits = sum (fun tg -> tg.cache_hits) in
  let misses = sum (fun tg -> tg.cache_misses) in
  let failed = sum (fun tg -> tg.failed) in
  let retried = sum (fun tg -> tg.retried) in
  let resumed = sum (fun tg -> tg.resumed) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"schema_version\": %d,\n" schema_version);
  Buffer.add_string buf
    (Printf.sprintf "  \"scale\": %s,\n  \"jobs\": %d,\n"
       (Json.to_string (Json.Str t.scale)) t.jobs);
  Buffer.add_string buf
    (Printf.sprintf "  \"total_wall_s\": %.3f,\n" total_wall);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"cache\": { \"hits\": %d, \"misses\": %d, \"hit_rate\": %.4f },\n"
       hits misses
       (if hits + misses = 0 then 0.
        else float_of_int hits /. float_of_int (hits + misses)));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"faults\": { \"failed\": %d, \"retried\": %d, \"resumed\": %d },\n"
       failed retried resumed);
  Buffer.add_string buf "  \"targets\": [\n";
  List.iteri
    (fun i tg ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"label\": %s, \"wall_s\": %.3f, \"jobs\": %d, \
            \"cache_hits\": %d, \"cache_misses\": %d, \"failed\": %d, \
            \"retried\": %d, \"resumed\": %d }%s\n"
           (Json.to_string (Json.Str tg.label)) tg.wall_s tg.jobs tg.cache_hits
           tg.cache_misses tg.failed tg.retried tg.resumed
           (if i = List.length targets - 1 then "" else ",")))
    targets;
  Buffer.add_string buf "  ],\n";
  (* The process-wide metrics registry snapshot — the same document the
     [--metrics] flag writes standalone — so one file carries both the perf
     trajectory and the run's internal counters. *)
  Buffer.add_string buf
    (Printf.sprintf "  \"metrics\": %s\n"
       (Json.to_string (Rats_obs.Metrics.snapshot ())));
  Buffer.add_string buf "}\n";
  Rats_obs.File.write_atomic path (Buffer.contents buf)

(* --- reading -------------------------------------------------------------- *)

type doc = {
  path : string;
  version : int;
  scale : string option;
  jobs : int option;
  total_wall_s : float option;
  targets : target list;
  metrics : Snapshot.t option;
}

let member name conv json = Option.bind (Json.member name json) conv

let target_of_json json =
  match
    (member "label" Json.to_str json, member "wall_s" Json.to_float json)
  with
  | Some label, Some wall_s ->
      let int name = Option.value (member name Json.to_int json) ~default:0 in
      Some
        {
          label;
          wall_s;
          jobs = int "jobs";
          cache_hits = int "cache_hits";
          cache_misses = int "cache_misses";
          failed = int "failed";
          retried = int "retried";
          resumed = int "resumed";
        }
  | _ -> None

let of_json ~path json =
  {
    path;
    (* Reports written before [schema_version] existed are version 1. *)
    version =
      Option.value (member "schema_version" Json.to_int json) ~default:1;
    scale = member "scale" Json.to_str json;
    jobs = member "jobs" Json.to_int json;
    total_wall_s = member "total_wall_s" Json.to_float json;
    targets =
      Option.fold ~none:[] ~some:(List.filter_map target_of_json)
        (member "targets" Json.to_list json);
    metrics =
      Option.bind (Json.member "metrics" json) (fun m ->
          Result.to_option (Snapshot.of_json m));
  }

let load path = Result.map (of_json ~path) (Rats_obs.File.read_json path)

let target doc label = List.find_opt (fun tg -> tg.label = label) doc.targets
