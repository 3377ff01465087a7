module Suite = Rats_daggen.Suite
module Cluster = Rats_platform.Cluster
module Core = Rats_core
module Stats = Rats_util.Stats
module Pool = Rats_runtime.Pool
module Exec = Rats_runtime.Exec

let mindelta_values = [ 0.; -0.25; -0.5; -0.75 ]
let maxdelta_values = [ 0.; 0.25; 0.5; 0.75; 1. ]
let minrho_values = [ 0.2; 0.4; 0.5; 0.6; 0.8; 1. ]

let delta_grid =
  List.concat_map
    (fun mindelta ->
      List.map (fun maxdelta -> { Core.Rats.mindelta; maxdelta }) maxdelta_values)
    mindelta_values

let timecost_grid =
  List.concat_map
    (fun packing ->
      List.map (fun minrho -> { Core.Rats.minrho; packing }) minrho_values)
    [ false; true ]

(* A failed unit drops out of the average (counted and reported through
   [exec.stats], never silently): sweeps degrade gracefully instead of
   losing hours of grid replays to one bad configuration. *)
let prepare ?(exec = Exec.make ()) cluster configs =
  Exec.map exec
    ~name:(fun c ->
      "tuning.prepare/" ^ cluster.Cluster.name ^ "/" ^ Suite.name c)
    ~f:(fun config -> Runner.prepare cluster (Suite.generate config))
    configs
  |> Exec.oks

let tuning_configs scale kind =
  Runner.first_samples ~cap:24
    (List.filter (fun c -> Suite.kind c = kind) (Suite.all scale))

(* The sweeps call this serially inside their grid-point tasks; the
   selector study spreads it over the pool. *)
let average_relative ?jobs prepared select =
  let ratio (p : Runner.prepared) =
    (Runner.measure p (select p)).Runner.makespan
    /. p.Runner.baseline.Runner.makespan
  in
  let ratios =
    match jobs with
    | None -> List.map ratio prepared
    | Some jobs -> Pool.map ~jobs ratio prepared
  in
  Stats.mean (Array.of_list ratios)

type delta_point = {
  mindelta : float;
  maxdelta : float;
  avg_relative_makespan : float;
}

(* The sweeps parallelize over grid points — each point replays every
   prepared configuration, so points are the coarsest independent unit. A
   failed point is dropped; the figure printers render missing grid points
   as "-". *)
let sweep_delta ?(exec = Exec.make ()) prepared =
  Exec.map exec
    ~name:(fun (d : Core.Rats.delta_params) ->
      Printf.sprintf "tuning.sweep_delta/min=%g,max=%g" d.mindelta d.maxdelta)
    ~f:(fun (d : Core.Rats.delta_params) ->
      {
        mindelta = d.mindelta;
        maxdelta = d.maxdelta;
        avg_relative_makespan =
          average_relative prepared (fun _ -> Core.Rats.Delta d);
      })
    delta_grid
  |> Exec.oks

type timecost_point = {
  packing : bool;
  minrho : float;
  avg_relative_makespan : float;
}

let sweep_timecost ?(exec = Exec.make ()) prepared =
  Exec.map exec
    ~name:(fun (t : Core.Rats.timecost_params) ->
      Printf.sprintf "tuning.sweep_timecost/packing=%b,rho=%g" t.packing
        t.minrho)
    ~f:(fun (t : Core.Rats.timecost_params) ->
      {
        packing = t.packing;
        minrho = t.minrho;
        avg_relative_makespan =
          average_relative prepared (fun _ -> Core.Rats.Timecost t);
      })
    timecost_grid
  |> Exec.oks

let grid_signature =
  List.map
    (fun values -> String.concat "," (List.map (Printf.sprintf "%h") values))
    [ mindelta_values; maxdelta_values; minrho_values ]

(* Cached whole-sweep variants: the full point list of a (cluster,
   configuration set) sweep is one cache entry, so a warm Figure 4/5
   regeneration skips prepare and every grid replay. Each entry prepares
   inside its own computation, so a preparation that lost a configuration
   also keeps that entry out of the cache. *)

let sweep_delta_for ?(exec = Exec.make ()) cluster configs =
  Exec.cached exec
    ~key:
      (Payload.key "tuning.sweep_delta" ~extra:grid_signature cluster configs)
    ~encode:
      (Payload.lines (fun (p : delta_point) ->
           Payload.floats [ p.mindelta; p.maxdelta; p.avg_relative_makespan ]))
    ~decode:
      (Payload.to_lines (fun line ->
           match Payload.to_floats line with
           | Some [ mindelta; maxdelta; avg_relative_makespan ] ->
               Some { mindelta; maxdelta; avg_relative_makespan }
           | _ -> None))
    (fun () -> sweep_delta ~exec (prepare ~exec cluster configs))

let sweep_timecost_for ?(exec = Exec.make ()) cluster configs =
  Exec.cached exec
    ~key:
      (Payload.key "tuning.sweep_timecost" ~extra:grid_signature cluster
         configs)
    ~encode:
      (Payload.lines (fun (p : timecost_point) ->
           Payload.flagged p.packing [ p.minrho; p.avg_relative_makespan ]))
    ~decode:
      (Payload.to_lines (fun line ->
           match Payload.to_flagged line with
           | Some (packing, [ minrho; avg_relative_makespan ]) ->
               Some { packing; minrho; avg_relative_makespan }
           | _ -> None))
    (fun () -> sweep_timecost ~exec (prepare ~exec cluster configs))

type tuned = { delta : Core.Rats.delta_params; minrho : float }

let best delta_points timecost_points =
  let best_delta =
    List.fold_left
      (fun (acc : delta_point option) (p : delta_point) ->
        match acc with
        | Some b when b.avg_relative_makespan <= p.avg_relative_makespan -> acc
        | _ -> Some p)
      None delta_points
  in
  let best_tc =
    List.fold_left
      (fun (acc : timecost_point option) p ->
        if not p.packing then acc
        else
          match acc with
          | Some b when b.avg_relative_makespan <= p.avg_relative_makespan -> acc
          | _ -> Some p)
      None timecost_points
  in
  match (best_delta, best_tc) with
  | Some d, Some t ->
      {
        delta = { Core.Rats.mindelta = d.mindelta; maxdelta = d.maxdelta };
        minrho = t.minrho;
      }
  | _ -> invalid_arg "Tuning.best: empty sweep"

(* A Table IV cell is the arg-min of the two cached sweeps, so the grillon
   FFT and irregular cells replay Figures 4 and 5. *)
let tune_cell ?exec cluster configs =
  let delta_points = sweep_delta_for ?exec cluster configs in
  best delta_points (sweep_timecost_for ?exec cluster configs)

let kinds : Suite.app_kind list = [ `Fft; `Strassen; `Layered; `Irregular ]

let table4 ?exec scale =
  List.map
    (fun cluster ->
      let per_kind =
        List.map
          (fun kind -> (kind, tune_cell ?exec cluster (tuning_configs scale kind)))
          kinds
      in
      (cluster.Cluster.name, per_kind))
    Cluster.presets

let tuned_for table ~cluster ~kind = List.assoc kind (List.assoc cluster table)
