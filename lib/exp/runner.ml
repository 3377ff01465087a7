module Suite = Rats_daggen.Suite
module Cluster = Rats_platform.Cluster
module Dag = Rats_dag.Dag
module Task = Rats_dag.Task
module Core = Rats_core
module Stats = Rats_util.Stats
module Cache = Rats_runtime.Cache
module Exec = Rats_runtime.Exec
module Retry = Rats_runtime.Retry
module Progress = Rats_runtime.Progress

type measurement = { makespan : float; work : float }

type result = {
  config : Suite.config;
  cluster : string;
  hcpa : measurement;
  delta : measurement;
  timecost : measurement;
}

type failure = {
  config : Suite.config;
  cluster : string;
  error : Retry.failure;
}

type sweep = { results : result list; failed : failure list; total : int }

type prepared = { problem : Core.Problem.t; alloc : int array }

let problem ?(flop_factor = 1.) cluster config =
  let dag = Suite.generate config in
  (* Scaling by 1 is skipped, so the factor-1 records are the suite's. *)
  let dag =
    if flop_factor = 1. then dag
    else
      Dag.map_tasks dag ~f:(fun t ->
          Task.make ~id:t.Task.id ~name:t.Task.name
            ~data_elements:t.Task.data_elements
            ~flop:(flop_factor *. t.Task.flop) ~alpha:t.Task.alpha)
  in
  Core.Problem.make ~dag ~cluster

(* --- arms and cells ------------------------------------------------------ *)

type arm = { name : string; schedule : prepared -> Core.Schedule.t }

let arm ~name schedule = { name; schedule }

let mapped strategy =
  let name =
    match strategy with
    | Core.Rats.Baseline -> "hcpa"
    | Core.Rats.Delta d -> Printf.sprintf "delta %h %h" d.mindelta d.maxdelta
    | Core.Rats.Timecost t -> Printf.sprintf "time-cost %h %b" t.minrho t.packing
  in
  arm ~name (fun p -> Core.Rats.schedule ~alloc:p.alloc p.problem strategy)

let hcpa = mapped Core.Rats.Baseline

let data_parallel =
  arm ~name:"data-parallel" (fun p -> Core.Reference.data_parallel p.problem)

let task_parallel =
  arm ~name:"task-parallel" (fun p -> Core.Reference.task_parallel p.problem)

type cell = {
  cluster : Cluster.t;
  config : Suite.config;
  flop_factor : float;
  arm : arm;
  work_conserving : bool;
  optimize_placement : bool;
}

let cell ?(flop_factor = 1.) ?(work_conserving = true)
    ?(optimize_placement = true) cluster config arm =
  { cluster; config; flop_factor; arm; work_conserving; optimize_placement }

(* A cell's id within its record: the arm's name and the replay flags. *)
let cell_id c =
  c.arm.name
  ^ (if c.work_conserving then "" else " strict-order")
  ^ if c.optimize_placement then "" else " natural-placement"

let measure p c =
  let schedule = c.arm.schedule p in
  let simulated =
    Core.Evaluate.run ~work_conserving:c.work_conserving
      ~optimize_placement:c.optimize_placement schedule
  in
  {
    makespan = simulated.Core.Evaluate.makespan;
    work = Core.Schedule.total_work schedule;
  }

(* --- records ------------------------------------------------------------- *)

(* One record per (cluster, configuration, flop factor): every cell ever
   measured on it, one "id<TAB>%h %h" line each. "%h" floats round-trip
   bit-exactly, so a replay is indistinguishable from a computation. In
   memory a record is hashed deep enough to tell shapes apart; its cache
   key adds the code salt. *)
module Records = Hashtbl.Make (struct
  type t = Cluster.t * Suite.config * float

  let equal = ( = )
  let hash = Hashtbl.hash_param 64 128
end)

let record c = (c.cluster, c.config, c.flop_factor)

let record_key (cluster, config, flop_factor) =
  Cache.key
    [
      "runner.record";
      Cluster.signature cluster;
      Suite.name config;
      Printf.sprintf "%h" flop_factor;
    ]

let encode_record cells =
  String.concat "\n"
    (List.map
       (fun (id, m) -> Printf.sprintf "%s\t%h %h" id m.makespan m.work)
       cells)

let decode_record payload =
  let line l =
    Scanf.sscanf_opt l "%[^\t]\t%h %h%!" (fun id makespan work ->
        (id, { makespan; work }))
  in
  let cells = List.map line (String.split_on_char '\n' payload) in
  if List.for_all Option.is_some cells then Some (List.filter_map Fun.id cells)
  else None

(* The cells one batch asks of one record, without duplicates. *)
type unit_ = { key : string; first : cell; cells : (string * cell) list }

(* Reads the record once; if it lacks a requested cell, prepares the
   problem and its HCPA allocation once, measures the missing cells and
   persists the grown record once. A failed unit stores nothing. *)
let run_unit exec u =
  let c = u.first in
  let name =
    Printf.sprintf "%s/%s@x%g" c.cluster.Cluster.name (Suite.name c.config)
      c.flop_factor
  in
  let stale = Exec.lookup exec ~name ~key:u.key ~decode:decode_record in
  let have = match stale with Some (cells, _) -> cells | None -> [] in
  let missing =
    List.filter (fun (id, _) -> not (List.mem_assoc id have)) u.cells
  in
  match (stale, missing) with
  | Some (cells, source), [] -> { Exec.source; attempts = 1; value = Ok cells }
  | _ ->
      let outcome =
        Exec.run exec ~name (fun () ->
            let problem =
              problem ~flop_factor:c.flop_factor c.cluster c.config
            in
            let p = { problem; alloc = Core.Hcpa.allocate problem } in
            List.map (fun (id, c) -> (id, measure p c)) missing)
      in
      let value =
        Result.map
          (fun fresh ->
            let cells = have @ fresh in
            Exec.store exec ~key:u.key (encode_record cells);
            cells)
          outcome.Exec.value
      in
      { outcome with Exec.value }

let units cells =
  let by_record = Records.create 64 in
  let order = ref [] in
  List.iter
    (fun c ->
      let r = record c in
      let id = cell_id c in
      match Records.find_opt by_record r with
      | None ->
          Records.replace by_record r (c, ref [ (id, c) ]);
          order := r :: !order
      | Some (_, requested) ->
          if not (List.mem_assoc id !requested) then
            requested := (id, c) :: !requested)
    cells;
  List.rev_map
    (fun r ->
      let first, requested = Records.find by_record r in
      { key = record_key r; first; cells = List.rev !requested })
    !order

type lookup = cell -> measurement option

let run_cells ?(exec = Exec.make ()) cells =
  let units = units cells in
  let found = Records.create 256 in
  List.iter2
    (fun u (o : _ Exec.outcome) ->
      Result.iter (Records.replace found (record u.first)) o.Exec.value)
    units
    (Exec.map_outcome exec ~run:(run_unit exec) units);
  fun c ->
    Option.bind (Records.find_opt found (record c)) (List.assoc_opt (cell_id c))

let mean = function
  | [] -> None
  | values -> Some (Stats.mean (Array.of_list values))

let relative_makespan lookup ?flop_factor cluster configs arm =
  mean
    (List.filter_map
       (fun config ->
         let at arm = lookup (cell ?flop_factor cluster config arm) in
         match (at arm, at hcpa) with
         | Some m, Some b -> Some (m.makespan /. b.makespan)
         | _ -> None)
       configs)

(* Even thinning keeps the whole shape spectrum represented. *)
let first_samples ~cap configs =
  let firsts = List.filter (fun c -> c.Suite.sample = 0) configs in
  let n = List.length firsts in
  if n <= cap then firsts
  else List.filteri (fun i _ -> i * cap / n <> (i - 1) * cap / n) firsts

(* --- suites -------------------------------------------------------------- *)

(* A configuration's three cells, as one record of one unit. *)
let run_config_outcome ?(delta = Core.Rats.naive_delta)
    ?(timecost = Core.Rats.naive_timecost) ~exec cluster config =
  let cell_of strategy = cell cluster config (mapped strategy) in
  let hcpa_cell = cell_of Core.Rats.Baseline in
  let delta_cell = cell_of (Core.Rats.Delta delta) in
  let timecost_cell = cell_of (Core.Rats.Timecost timecost) in
  let outcome =
    run_unit exec (List.hd (units [ hcpa_cell; delta_cell; timecost_cell ]))
  in
  let result cells =
    let at c = List.assoc (cell_id c) cells in
    {
      config;
      cluster = cluster.Cluster.name;
      hcpa = at hcpa_cell;
      delta = at delta_cell;
      timecost = at timecost_cell;
    }
  in
  { outcome with Exec.value = Result.map result outcome.Exec.value }

(* Strict, so a failure raises {!Exec.Task_failed}. *)
let run_config ?delta ?timecost ?cache cluster config =
  let exec = Exec.make ~jobs:1 ?cache ~strict:true () in
  Result.get_ok
    (run_config_outcome ?delta ?timecost ~exec cluster config).Exec.value

let run_sweep ?(delta = Core.Rats.naive_delta)
    ?(timecost = Core.Rats.naive_timecost) ?(progress = false)
    ?(exec = Exec.make ()) scale cluster =
  let configs = Suite.all scale in
  let reporter =
    Progress.create ~enabled:progress ~label:cluster.Cluster.name
      ~total:(List.length configs) ()
  in
  let outcomes =
    Exec.map_outcome exec
      ~run:(fun config ->
        let o = run_config_outcome ~delta ~timecost ~exec cluster config in
        Progress.step reporter;
        o)
      configs
  in
  Progress.finish reporter;
  let results, failed =
    List.fold_right2
      (fun config o (rs, fs) ->
        match o.Exec.value with
        | Ok r -> (r :: rs, fs)
        | Error error ->
            (rs, { config; cluster = cluster.Cluster.name; error } :: fs))
      configs outcomes ([], [])
  in
  { results; failed; total = List.length configs }

let pp_failures ppf sweep =
  match sweep.failed with
  | [] -> ()
  | failed ->
      Format.fprintf ppf "%d/%d configurations failed:@." (List.length failed)
        sweep.total;
      List.iter
        (fun (f : failure) ->
          Format.fprintf ppf "  %s/%s: %s@." f.cluster (Suite.name f.config)
            (Retry.failure_to_string f.error))
        failed
