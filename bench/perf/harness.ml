(* Runs one workload and reports it.

   An untraced run sets the workload up several times (reporting the
   median), then repeats passes until [seconds] have elapsed and derives
   the end-to-end metrics from every pass. A traced run does one untraced
   pass, reading the metrics registry and GC counters around it, then the
   same pass again with benchmark-side spans, and derives the per-layer
   metrics from the two. *)

module Json = Rats_obs.Json
module Metrics = Rats_obs.Metrics
module Instr = Rats_obs.Instr
module Trace = Rats_obs.Trace

type metric = { name : string; value : float; unit : string; samples : int }

type result = {
  workload : string;
  seed : int;
  traced : bool;
  attempted : int;
  failed : int;
  errors : string list;
  digest : string;
  metrics : metric list;  (** The metrics of the run's summary line. *)
  extra : metric list;
      (** Printed and recorded only. Untraced: tail percentiles, which on
          this workload mix swing 15-25% between identical runs, and the
          failed share, which is 0 when all is well. Traced: counts that
          restate the workload's size (jobs completed, tasks generated and
          mapped...), which no optimisation should move. *)
  facts : (string * float) list;
  self_s : (string * float) list;  (** Traced runs: layer self seconds. *)
}

let metric ?(samples = 1) name unit value = { name; value; unit; samples }

(* VmHWM: the process's peak resident set, in MB. *)
let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> failwith "no VmHWM in /proc/self/status"
          | Some l when String.starts_with ~prefix:"VmHWM:" l -> l
          | Some _ -> find ()
        in
        find ())
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

let with_scratch ~scratch k f =
  let dir = Filename.concat scratch (Printf.sprintf "pass-%d" k) in
  Workload.rm_rf dir;
  Workload.mkdir_p dir;
  Fun.protect ~finally:(fun () -> Workload.rm_rf dir) (fun () -> f dir)

(* Every pass must reproduce the first one's output. *)
let consistency (passes : Workload.pass list) =
  match passes with
  | [] -> ([], "")
  | first :: rest ->
      let errors =
        List.concat_map (fun (p : Workload.pass) -> p.errors) passes
        @ List.filter_map
            (fun (p : Workload.pass) ->
              if p.digest = first.digest then None
              else Some "a repeated pass produced a different output digest")
            rest
      in
      (errors, first.digest)

let sum f passes = List.fold_left (fun acc p -> acc + f p) 0 passes

(* Set-up is timed in batches of back-to-back repetitions lasting at least
   [min_batch_s] each; a sample is a batch's time per set-up. Samples are
   taken for [setup_budget_s], and at least [min_setups] of them. Timed
   over only the few milliseconds that a thousand 10 us set-ups take, the
   median flipped between two speeds from one process to the next.
   Collecting between repetitions did not steady it, and [Gc.compact]
   each time grew peak RSS. *)
let min_setups = 9
let min_batch_s = 1e-3
let max_batch = 1 lsl 20
let setup_budget_s = 2.

let timed_setups (spec : _ Workload.spec) ~seed =
  Gc.compact ();
  let first = snd (Workload.timed (fun () -> spec.setup ~seed)) in
  let rec batch b =
    if b >= max_batch || float_of_int b *. first >= min_batch_s then b else batch (2 * b)
  in
  let b = batch 1 in
  let t_start = Workload.now () in
  (* Only the last set-up's inputs stay alive, so set-up garbage does not
     add to peak RSS. *)
  let rec go k acc =
    let inputs, dt =
      Workload.timed (fun () ->
          for _ = 2 to b do
            ignore (Sys.opaque_identity (spec.setup ~seed))
          done;
          spec.setup ~seed)
    in
    let acc = (dt /. float_of_int b) :: acc in
    if k + 1 >= min_setups && Workload.now () -. t_start >= setup_budget_s then
      (Array.of_list acc, inputs)
    else go (k + 1) acc
  in
  go 0 []

let measure (Workload.W spec) ~seed ~seconds ~scratch =
  let setup_times, inputs = timed_setups spec ~seed in
  (* Passes start from a compacted heap, not from set-up's garbage. *)
  Gc.compact ();
  let t_start = Workload.now () in
  let rec loop k acc =
    let p =
      with_scratch ~scratch k (fun dir -> spec.pass inputs ~scratch:dir ~tracer:None)
    in
    if Workload.now () -. t_start >= seconds then List.rev (p :: acc)
    else loop (k + 1) (p :: acc)
  in
  let passes = loop 0 [] in
  let errors, digest = consistency passes in
  let latencies =
    Array.concat (List.map (fun (p : Workload.pass) -> p.latencies) passes)
  in
  let n = Array.length latencies in
  let wall = List.fold_left (fun acc (p : Workload.pass) -> acc +. p.wall_s) 0. passes in
  let attempted = sum (fun (p : Workload.pass) -> p.ops) passes in
  let failed = sum (fun (p : Workload.pass) -> p.failed) passes in
  let pct permille =
    Option.map
      (fun v ->
        metric ~samples:n (Printf.sprintf "latency_p%d_ms" (permille / 10)) "ms" (v *. 1e3))
      (Stats.percentile ~permille latencies)
  in
  let p50, errors =
    match pct 500 with
    | Some m -> ([ m ], errors)
    | None -> ([], errors @ [ Printf.sprintf "too few ops for a median: %d" n ])
  in
  {
    workload = spec.name;
    seed;
    traced = false;
    attempted;
    failed;
    errors;
    digest;
    metrics =
      [
        metric ~samples:(Array.length setup_times) "setup_s" "s" (Rats_util.Stats.median setup_times);
        metric ~samples:attempted "ops_per_s" "1/s" (float_of_int attempted /. wall);
      ]
      @ p50
      @ [ metric "peak_rss_mb" "MB" (peak_rss_mb ()) ];
    extra =
      List.filter_map pct [ 900; 990 ]
      @ [ metric ~samples:attempted "failed_frac" "ratio"
            (float_of_int failed /. float_of_int attempted) ];
    facts = (List.hd passes).facts;
    self_s = [];
  }

(* --- traced run ---------------------------------------------------------- *)

let counter c = float_of_int (Metrics.counter_value c)

let map_counts kinds =
  List.fold_left
    (fun acc strategy ->
      List.fold_left
        (fun acc kind -> acc +. counter (Instr.map_strategy_counter ~strategy kind))
        acc kinds)
    0. [ "hcpa"; "delta"; "time-cost" ]

(* Registry counters after the untraced pass (reset before it). *)
let registry_counts () =
  let dirty = counter Instr.maxmin_dirty_flows
  and skipped = counter Instr.maxmin_skipped_flows in
  [
    ("sim.events", counter Instr.sim_events, "count");
    ("sim.queue_depth_max", Metrics.gauge_value Instr.sim_queue_depth_max, "count");
    ("maxmin.inc_refreshes", counter Instr.maxmin_inc_refreshes, "count");
    ("maxmin.full_refreshes", counter Instr.maxmin_full_refreshes, "count");
    ("maxmin.component_solves", counter Instr.maxmin_component_solves, "count");
    ("maxmin.inc_iterations", counter Instr.maxmin_inc_iterations, "count");
    ("maxmin.dirty_flows", dirty, "count");
    ("maxmin.skipped_flows", skipped, "count");
    ( "maxmin.skip_frac",
      (if dirty +. skipped > 0. then skipped /. (dirty +. skipped) else 0.),
      "ratio" );
    ("maxmin.dirty_set_max", Metrics.gauge_value Instr.maxmin_dirty_set_max, "count");
    ("alloc.refinements", counter Instr.alloc_refinements, "count");
    ("problem.timing_entries", counter Instr.timing_table_entries, "count");
    ("problem.timing_lookups", counter Instr.timing_lookups, "count");
    ("pool.steals", counter Instr.pool_steals, "count");
  ]

(* Registry counters fixed by the workload's inputs and outputs. *)
let registry_size_counts () =
  [
    ("sim.runs", counter Instr.sim_runs);
    ("alloc.calls", counter Instr.alloc_runs);
    ("problem.tables_built", counter Instr.timing_tables);
    ("map.tasks_mapped", map_counts [ `Packed; `Stretched; `Unchanged ]);
    ("map.redistributions_eliminated", map_counts [ `Eliminated ]);
    ("pool.tasks", counter Instr.pool_tasks);
  ]

(* Counts the workloads report themselves; absent ones are 0. The first
   are per-layer metrics, the rest restate the workload's size. *)
let workload_counts = [ "protocol.bytes_out"; "server.queue_depth_max" ]

let workload_size_counts =
  [
    "daggen.tasks";
    "protocol.bytes_in";
    "server.events";
    "server.completed";
    "server.rejected";
    "server.expired";
    "runtime.cache_misses";
    "runtime.journal_appends";
  ]

let trace (Workload.W spec) ~seed ~scratch =
  let inputs = spec.setup ~seed in
  Gc.compact ();
  Metrics.reset ();
  let gc0 = Gc.quick_stat () in
  let untraced =
    with_scratch ~scratch 0 (fun dir -> spec.pass inputs ~scratch:dir ~tracer:None)
  in
  let gc1 = Gc.quick_stat () in
  let registry = registry_counts () and registry_size = registry_size_counts () in
  let tracer = Trace.create () in
  let traced =
    with_scratch ~scratch 1 (fun dir ->
        spec.pass inputs ~scratch:dir ~tracer:(Some tracer))
  in
  let errors, digest = consistency [ untraced; traced ] in
  let self_s = Layers.self_times (Trace.events tracer) in
  let capacity = float_of_int spec.jobs *. traced.wall_s in
  let covered = List.fold_left (fun acc (_, s) -> acc +. s) 0. self_s in
  let share layer =
    metric (layer ^ ".share") "ratio"
      (Option.value (List.assoc_opt layer self_s) ~default:0. /. capacity)
  in
  let count name =
    metric name "count" (Option.value (List.assoc_opt name untraced.counts) ~default:0.)
  in
  let allocated_words =
    gc1.Gc.minor_words +. gc1.Gc.major_words -. gc1.Gc.promoted_words
    -. (gc0.Gc.minor_words +. gc0.Gc.major_words -. gc0.Gc.promoted_words)
  in
  {
    workload = spec.name;
    seed;
    traced = true;
    attempted = untraced.ops + traced.ops;
    failed = untraced.failed + traced.failed;
    errors;
    digest;
    metrics =
      List.map share Layers.names
      @ [
          metric "pool.idle_frac" "ratio" (1. -. (covered /. capacity));
          metric "trace.wall_s" "s" traced.wall_s;
          metric "trace.overhead_frac" "ratio" ((traced.wall_s /. untraced.wall_s) -. 1.);
        ]
      @ List.map (fun (name, v, unit) -> metric name unit v) registry
      @ List.map count workload_counts
      @ [
          metric "gc.allocated_mb" "MB"
            (allocated_words *. float_of_int (Sys.word_size / 8) /. 1048576.);
          metric "gc.major_collections" "count"
            (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
        ];
    extra =
      List.map (fun (name, v) -> metric name "count" v) registry_size
      @ List.map count workload_size_counts;
    facts = untraced.facts;
    self_s;
  }

(* --- output ---------------------------------------------------------------- *)

let metric_json m = Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit) ]

(* The last line of a run's stdout: exactly these four keys. *)
let summary_json r =
  Json.Obj
    [
      ("correct", Json.Bool (r.errors = []));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("metrics", Json.Obj (List.map (fun m -> (m.name, metric_json m)) r.metrics));
    ]

(* The record [compare] reads: the summary plus digest, samples and facts. *)
let record_json r =
  let num_obj l = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) l) in
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", Json.Num (float_of_int r.seed));
      ("traced", Json.Bool r.traced);
      ("correct", Json.Bool (r.errors = []));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("output_digest", Json.Str r.digest);
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               ( m.name,
                 Json.Obj
                   [
                     ("value", Json.Num m.value);
                     ("unit", Json.Str m.unit);
                     ("samples", Json.Num (float_of_int m.samples));
                   ] ))
             (r.metrics @ r.extra)) );
      ("facts", num_obj r.facts);
      ("self_s", num_obj r.self_s);
      ("errors", Json.Arr (List.map (fun e -> Json.Str e) r.errors));
    ]

let print ppf r =
  Format.fprintf ppf "workload %s  seed %d%s@." r.workload r.seed
    (if r.traced then "  (traced)" else "");
  List.iter
    (fun m ->
      Format.fprintf ppf "  %-34s %14.6g %-6s%s@." m.name m.value m.unit
        (if m.samples > 1 then Printf.sprintf " (n=%d)" m.samples else ""))
    (r.metrics @ r.extra);
  List.iter (fun (k, v) -> Format.fprintf ppf "  %-34s %14.6g s (self)@." k v) r.self_s;
  Format.fprintf ppf "  %-34s %d/%d@." "failed" r.failed r.attempted;
  List.iter (fun (k, v) -> Format.fprintf ppf "  %-34s %.17g@." k v) r.facts;
  Format.fprintf ppf "  %-34s %s@." "output_digest" r.digest;
  List.iter (fun e -> Format.fprintf ppf "  CHECK FAILED: %s@." e) r.errors
