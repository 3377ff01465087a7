module Snapshot = Rats_obs.Snapshot

let trace path =
  Result.bind (Rats_obs.File.read_json path) (fun json ->
      Result.map_error
        (fun msg -> path ^ ": " ^ msg)
        (Rats_obs.Trace.events_of_json json))

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
