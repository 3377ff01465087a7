module Json = Rats_obs.Json
module Snapshot = Rats_obs.Snapshot

let ( let* ) = Result.bind

let parse_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents ->
      Result.map_error (fun msg -> path ^ ": " ^ msg) (Json.parse contents)

let trace path =
  let* json = parse_file path in
  Result.map_error
    (fun msg -> path ^ ": " ^ msg)
    (Rats_obs.Trace.events_of_json json)

let metrics path =
  let* json = parse_file path in
  let is_obj section =
    match Json.member section json with Some (Json.Obj _) -> true | _ -> false
  in
  if List.for_all is_obj [ "counters"; "gauges"; "histograms" ] then
    Snapshot.of_json json
  else Error (path ^ ": missing counters/gauges/histograms objects")

type need = Counter_present | Counter_positive | Histogram_observed

let bench_requirements =
  let per_strategy need fmt =
    List.map (fun s -> (Printf.sprintf fmt s, need)) [ "delta"; "time_cost" ]
  in
  [
    ("rats_sim_events_total", Counter_positive);
    ("rats_cache_hits_total", Counter_present);
    ("rats_cache_misses_total", Counter_positive);
    ("rats_cache_read_seconds", Histogram_observed);
    ("rats_cache_write_seconds", Histogram_observed);
    ("rats_pool_steals_total", Counter_present);
    ("rats_pool_tasks_total", Counter_positive);
  ]
  @ per_strategy Counter_present "rats_map_%s_packed_total"
  @ per_strategy Counter_present "rats_map_%s_stretched_total"
  @ per_strategy Counter_positive
      "rats_map_%s_redistributions_eliminated_total"

let meets snapshot (name, need) =
  match need with
  | Counter_present | Counter_positive -> (
      match Snapshot.counter snapshot name with
      | None -> Error (Printf.sprintf "counter %s missing" name)
      | Some n when n <= 0 && need = Counter_positive ->
          Error (Printf.sprintf "counter %s is %d, expected > 0" name n)
      | Some _ -> Ok ())
  | Histogram_observed -> (
      match Snapshot.histogram snapshot name with
      | None -> Error (Printf.sprintf "histogram %s missing" name)
      | Some h when h.Snapshot.count <= 0 ->
          Error (Printf.sprintf "histogram %s recorded no observations" name)
      | Some _ -> Ok ())

let bench_counters snapshot =
  List.fold_left
    (fun acc req -> Result.bind acc (fun () -> meets snapshot req))
    (Ok ()) bench_requirements
