module Json = Rats_obs.Json

(* Version history:
   1 — implicit (no [schema_version] field): targets + cache + faults.
   2 — adds [schema_version] and the embedded metrics registry snapshot. *)
let schema_version = 2

type entry = {
  label : string;
  wall_s : float;
  jobs : int;
  cache_hits : int;
  cache_misses : int;
  failed : int;
  retried : int;
  resumed : int;
}

type t = { scale : string; jobs : int; mutable entries : entry list }

let create ~scale ~jobs () = { scale; jobs; entries = [] }

let record t ~label ~wall_s ~cache_hits ~cache_misses ?(failed = 0)
    ?(retried = 0) ?(resumed = 0) () =
  t.entries <-
    { label; wall_s; jobs = t.jobs; cache_hits; cache_misses; failed; retried; resumed }
    :: t.entries

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let write t path =
  let entries = List.rev t.entries in
  let total_wall = List.fold_left (fun a e -> a +. e.wall_s) 0. entries in
  let sum f = List.fold_left (fun a e -> a + f e) 0 entries in
  let hits = sum (fun e -> e.cache_hits) in
  let misses = sum (fun e -> e.cache_misses) in
  let failed = sum (fun e -> e.failed) in
  let retried = sum (fun e -> e.retried) in
  let resumed = sum (fun e -> e.resumed) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"schema_version\": %d,\n" schema_version);
  Buffer.add_string buf
    (Printf.sprintf "  \"scale\": %s,\n  \"jobs\": %d,\n" (json_string t.scale)
       t.jobs);
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
    (fun i e ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"label\": %s, \"wall_s\": %.3f, \"jobs\": %d, \
            \"cache_hits\": %d, \"cache_misses\": %d, \"failed\": %d, \
            \"retried\": %d, \"resumed\": %d }%s\n"
           (json_string e.label) e.wall_s e.jobs e.cache_hits e.cache_misses
           e.failed e.retried e.resumed
           (if i = List.length entries - 1 then "" else ",")))
    entries;
  Buffer.add_string buf "  ],\n";
  (* The process-wide metrics registry snapshot — the same document the
     [--metrics] flag writes standalone — so one file carries both the perf
     trajectory and the run's internal counters. *)
  Buffer.add_string buf
    (Printf.sprintf "  \"metrics\": %s\n"
       (Json.to_string (Rats_obs.Metrics.snapshot ())));
  Buffer.add_string buf "}\n";
  let dir = Filename.dirname path in
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~temp_dir:dir "report" ".tmp"
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Buffer.output_buffer oc buf);
  Sys.rename tmp path

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> Json.parse contents

(* Reports written before [schema_version] existed are version 1. *)
let version_of json =
  match Json.member "schema_version" json with
  | Some v -> ( match Json.to_int v with Some n -> n | None -> 1)
  | None -> 1
