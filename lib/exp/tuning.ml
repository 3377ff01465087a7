module Suite = Rats_daggen.Suite
module Cluster = Rats_platform.Cluster
module Core = Rats_core
module Stats = Rats_util.Stats
module Exec = Rats_runtime.Exec

let mindelta_values = [ 0.; -0.25; -0.5; -0.75 ]
let maxdelta_values = [ 0.; 0.25; 0.5; 0.75; 1. ]
let minrho_values = [ 0.2; 0.4; 0.5; 0.6; 0.8; 1. ]

type prepared = {
  problem : Core.Problem.t;
  alloc : int array;
  hcpa_makespan : float;
}

(* A failed unit drops out of the average (counted and reported through
   [exec.stats], never silently): sweeps degrade gracefully instead of
   losing hours of grid replays to one bad configuration. *)
let prepare ?(exec = Exec.make ()) cluster configs =
  Exec.map exec
    ~name:(fun c ->
      "tuning.prepare/" ^ cluster.Cluster.name ^ "/" ^ Suite.name c)
    ~f:(fun config ->
      let dag = Suite.generate config in
      let problem = Core.Problem.make ~dag ~cluster in
      let alloc = Core.Hcpa.allocate problem in
      let hcpa =
        Runner.strategy_measurement ~alloc problem Core.Rats.Baseline
      in
      { problem; alloc; hcpa_makespan = hcpa.Runner.makespan })
    configs
  |> Exec.oks

let configs_of_kind scale kind =
  List.filter (fun c -> Suite.kind c = kind) (Suite.all scale)

let tuning_configs scale kind =
  let firsts =
    List.filter (fun c -> c.Suite.sample = 0) (configs_of_kind scale kind)
  in
  let n = List.length firsts in
  let cap = 24 in
  if n <= cap then firsts
  else
    (* Even thinning keeps the whole shape spectrum represented. *)
    List.filteri (fun i _ -> i * cap / n <> (i - 1) * cap / n) firsts

let average_relative prepared strategy =
  let ratios =
    List.map
      (fun p ->
        let m = Runner.strategy_measurement ~alloc:p.alloc p.problem strategy in
        m.Runner.makespan /. p.hcpa_makespan)
      prepared
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
  let grid =
    List.concat_map
      (fun mindelta -> List.map (fun maxdelta -> (mindelta, maxdelta)) maxdelta_values)
      mindelta_values
  in
  Exec.map exec
    ~name:(fun (mindelta, maxdelta) ->
      Printf.sprintf "tuning.sweep_delta/min=%g,max=%g" mindelta maxdelta)
    ~f:(fun (mindelta, maxdelta) ->
      let strategy = Core.Rats.Delta { mindelta; maxdelta } in
      {
        mindelta;
        maxdelta;
        avg_relative_makespan = average_relative prepared strategy;
      })
    grid
  |> Exec.oks

type timecost_point = {
  packing : bool;
  minrho : float;
  avg_relative_makespan : float;
}

let sweep_timecost ?(exec = Exec.make ()) prepared =
  let grid =
    List.concat_map
      (fun packing -> List.map (fun minrho -> (packing, minrho)) minrho_values)
      [ false; true ]
  in
  Exec.map exec
    ~name:(fun (packing, minrho) ->
      Printf.sprintf "tuning.sweep_timecost/packing=%b,rho=%g" packing minrho)
    ~f:(fun (packing, minrho) ->
      let strategy = Core.Rats.Timecost { minrho; packing } in
      {
        packing;
        minrho;
        avg_relative_makespan = average_relative prepared strategy;
      })
    grid
  |> Exec.oks

let grid_signature =
  List.map
    (fun values -> String.concat "," (List.map (Printf.sprintf "%h") values))
    [ mindelta_values; maxdelta_values; minrho_values ]

(* Cached whole-sweep variants: the full point list of a (cluster,
   configuration set) sweep is one cache entry, so a warm Figure 4/5
   regeneration skips prepare and every grid replay. *)

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

let kinds : Suite.app_kind list = [ `Fft; `Strassen; `Layered; `Irregular ]

(* One cache entry per (cluster, kind) cell of Table IV; a hit skips the
   whole prepare + sweep pipeline for that cell. The key covers everything
   the tuned values depend on: cluster, configuration set, and both grids. *)
let tune_cell ?(exec = Exec.make ()) cluster kind configs =
  Exec.cached exec
    ~key:
      (Payload.key "tuning.table4"
         ~extra:(Suite.kind_name kind :: grid_signature)
         cluster configs)
    ~encode:(fun t ->
      Payload.floats
        [ t.delta.Core.Rats.mindelta; t.delta.Core.Rats.maxdelta; t.minrho ])
    ~decode:(fun payload ->
      match Payload.to_floats payload with
      | Some [ mindelta; maxdelta; minrho ] ->
          Some { delta = { Core.Rats.mindelta; maxdelta }; minrho }
      | _ -> None)
    (fun () ->
      let prepared = prepare ~exec cluster configs in
      best (sweep_delta ~exec prepared) (sweep_timecost ~exec prepared))

let table4 ?exec scale =
  List.map
    (fun cluster ->
      let per_kind =
        List.map
          (fun kind ->
            (kind, tune_cell ?exec cluster kind (tuning_configs scale kind)))
          kinds
      in
      (cluster.Cluster.name, per_kind))
    Cluster.presets

let tuned_for table ~cluster ~kind = List.assoc kind (List.assoc cluster table)
