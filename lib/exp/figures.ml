module Suite = Rats_daggen.Suite
module Cluster = Rats_platform.Cluster
module Core = Rats_core
module Block = Rats_redist.Block

let table1 ppf =
  Format.fprintf ppf
    "Table I: communication matrix, 10 units, p=4 senders -> q=5 receivers@.";
  let entries = Block.comm_matrix ~amount:10. ~senders:4 ~receivers:5 in
  Format.fprintf ppf "      ";
  for j = 0 to 4 do
    Format.fprintf ppf "   q%d " (j + 1)
  done;
  Format.fprintf ppf "@.";
  for i = 0 to 3 do
    Format.fprintf ppf "  p%d  " (i + 1);
    for j = 0 to 4 do
      match List.find_opt (fun (a, b, _) -> a = i && b = j) entries with
      | Some (_, _, v) -> Format.fprintf ppf "%5.2g " v
      | None -> Format.fprintf ppf "    . "
    done;
    Format.fprintf ppf "@."
  done

let table2 ppf =
  Format.fprintf ppf "Table II: cluster characteristics@.";
  List.iter (fun c -> Format.fprintf ppf "  %a@." Cluster.pp c) Cluster.presets

let table3 ppf scale =
  Format.fprintf ppf "Table III: random DAG generation parameters@.";
  Format.fprintf ppf "  #tasks: 25, 50, 100; width: 0.2/0.5/0.8; density: 0.2/0.8;@.";
  Format.fprintf ppf "  regularity: 0.2/0.8; jump (irregular): 1/2/4; alpha: [0, 0.25]@.";
  let count k =
    List.length (List.filter (fun c -> Suite.kind c = k) (Suite.all scale))
  in
  Format.fprintf ppf
    "  configurations at this scale: layered %d, irregular %d, fft %d, \
     strassen %d, total %d@."
    (count `Layered) (count `Irregular) (count `Fft) (count `Strassen)
    (Suite.n_configs scale)

let print_series ppf title series =
  Format.fprintf ppf "%s@." title;
  List.iter
    (fun (s : Metrics.series) ->
      let n = Array.length s.Metrics.values in
      (* A sweep whose every configuration failed has nothing to rank. *)
      if n = 0 then
        Format.fprintf ppf "  %-10s n=0 mean=- improved-in=-@.    percentiles: none@."
          s.Metrics.label
      else begin
        let mean, wins = Metrics.mean_and_win_fraction s in
        Format.fprintf ppf "  %-10s n=%d mean=%.3f improved-in=%.0f%%@."
          s.Metrics.label n mean (100. *. wins);
        Format.fprintf ppf "    percentiles:";
        List.iter
          (fun p ->
            let idx = min (n - 1) (p * (n - 1) / 100) in
            Format.fprintf ppf " p%d=%.3f" p s.Metrics.values.(idx))
          [ 0; 10; 25; 50; 75; 90; 100 ];
        Format.fprintf ppf "@."
      end)
    series

let fig2 ppf results =
  print_series ppf
    "Figure 2: makespan relative to HCPA (naive parameters), sorted series"
    (Metrics.relative_makespan results)

let fig3 ppf results =
  print_series ppf
    "Figure 3: work relative to HCPA (naive parameters), sorted series"
    (Metrics.relative_work results)

let fig4 ppf points =
  Format.fprintf ppf
    "Figure 4: delta strategy, avg makespan relative to HCPA over \
     (mindelta, maxdelta)@.";
  Format.fprintf ppf "  %9s" "min\\max";
  List.iter (fun v -> Format.fprintf ppf " %6.2f" v) Tuning.maxdelta_values;
  Format.fprintf ppf "@.";
  List.iter
    (fun mindelta ->
      Format.fprintf ppf "  %9.2f" mindelta;
      List.iter
        (fun maxdelta ->
          match
            List.find_opt
              (fun (p : Tuning.delta_point) ->
                p.Tuning.mindelta = mindelta && p.Tuning.maxdelta = maxdelta)
              points
          with
          | Some p -> Format.fprintf ppf " %6.3f" p.Tuning.avg_relative_makespan
          | None -> Format.fprintf ppf "      -")
        Tuning.maxdelta_values;
      Format.fprintf ppf "@.")
    Tuning.mindelta_values

let fig5 ppf points =
  Format.fprintf ppf
    "Figure 5: time-cost strategy, avg makespan relative to HCPA vs minrho@.";
  List.iter
    (fun packing ->
      Format.fprintf ppf "  packing %-3s:" (if packing then "on" else "off");
      List.iter
        (fun minrho ->
          match
            List.find_opt
              (fun (p : Tuning.timecost_point) ->
                p.Tuning.packing = packing && p.Tuning.minrho = minrho)
              points
          with
          | Some p ->
              Format.fprintf ppf " rho=%.1f:%.3f" minrho
                p.Tuning.avg_relative_makespan
          | None -> Format.fprintf ppf " rho=%.1f:-" minrho)
        Tuning.minrho_values;
      Format.fprintf ppf "@.")
    [ false; true ]

let table4 ppf table =
  Format.fprintf ppf
    "Table IV: tuned (mindelta, maxdelta, minrho) per application and cluster@.";
  Format.fprintf ppf "  %-8s" "";
  List.iter
    (fun k -> Format.fprintf ppf " %18s" (Suite.kind_name k))
    [ `Fft; `Strassen; `Layered; `Irregular ];
  Format.fprintf ppf "@.";
  List.iter
    (fun (cluster, per_kind) ->
      Format.fprintf ppf "  %-8s" cluster;
      List.iter
        (fun kind ->
          match List.assoc kind per_kind with
          | Some (t : Tuning.tuned) ->
              Format.fprintf ppf " (%5.2f,%5.2f,%4.2f)"
                t.delta.Core.Rats.mindelta t.delta.Core.Rats.maxdelta t.minrho
          | None -> Format.fprintf ppf " %18s" "-")
        [ `Fft; `Strassen; `Layered; `Irregular ];
      Format.fprintf ppf "@.")
    table

let fig6 ppf results =
  print_series ppf
    "Figure 6: makespan relative to HCPA (tuned parameters), sorted series"
    (Metrics.relative_makespan results)

let fig7 ppf results =
  print_series ppf
    "Figure 7: work relative to HCPA (tuned parameters), sorted series"
    (Metrics.relative_work results)

let table5 ppf per_cluster =
  Format.fprintf ppf
    "Table V: pairwise comparison (better/equal/worse), cells %s@."
    (String.concat " / " (List.map fst per_cluster));
  let tables = List.map (fun (_, r) -> snd (Metrics.pairwise r)) per_cluster in
  let labels = [| "HCPA"; "delta"; "time-cost" |] in
  for i = 0 to 2 do
    Format.fprintf ppf "  %-9s vs:" labels.(i);
    for j = 0 to 2 do
      if i <> j then begin
        Format.fprintf ppf "  %s[" labels.(j);
        List.iteri
          (fun k m ->
            let c = m.(i).(j) in
            Format.fprintf ppf "%s%d/%d/%d"
              (if k > 0 then " " else "")
              c.Metrics.better c.Metrics.equal c.Metrics.worse)
          tables;
        Format.fprintf ppf "]"
      end
    done;
    Format.fprintf ppf "@.";
    Format.fprintf ppf "    combined %%:";
    List.iter
      (fun m ->
        let _, pct = Metrics.combined_percent m i in
        Format.fprintf ppf " %.1f/%.1f/%.1f" pct.(0) pct.(1) pct.(2))
      tables;
    Format.fprintf ppf "@."
  done

let table6 ppf per_cluster =
  Format.fprintf ppf "Table VI: average degradation from best@.";
  List.iter
    (fun (cluster, results) ->
      Format.fprintf ppf "  %s:@." cluster;
      List.iter
        (fun (d : Metrics.degradation) ->
          Format.fprintf ppf
            "    %-9s avg-over-all=%6.2f%%  #not-best=%3d  \
             avg-over-not-best=%6.2f%%@."
            d.Metrics.label d.Metrics.avg_over_all d.Metrics.n_not_best
            d.Metrics.avg_over_not_best)
        (Metrics.degradation_from_best results))
    per_cluster

let run_tuned_suite ?(exec = Rats_runtime.Exec.make ()) scale table cluster =
  let module Exec = Rats_runtime.Exec in
  Exec.map_outcome exec
    ~run:(fun config ->
      let kind = Suite.kind config in
      match Tuning.tuned_for table ~cluster:cluster.Cluster.name ~kind with
      | Some tuned ->
          Runner.run_config_outcome ~delta:tuned.Tuning.delta
            ~timecost:{ Core.Rats.minrho = tuned.Tuning.minrho; packing = true }
            ~exec cluster config
      | None ->
          (* Captured by [map_outcome] as this configuration's failure. *)
          failwith
            (Printf.sprintf "no tuned parameters for %s on %s"
               (Suite.kind_name kind) cluster.Cluster.name))
    (Suite.all scale)
  |> List.filter_map (fun o -> Result.to_option o.Exec.value)

let pp_value pp ppf = function
  | Some v -> pp ppf v
  | None -> Format.pp_print_string ppf "-"

let write_csv path results =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "config,cluster,kind,hcpa_makespan,delta_makespan,timecost_makespan,\
     hcpa_work,delta_work,timecost_work\n";
  List.iter
    (fun (r : Runner.result) ->
      Printf.bprintf buf "%s,%s,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n"
        (Suite.name r.Runner.config)
        r.Runner.cluster
        (Suite.kind_name (Suite.kind r.Runner.config))
        r.Runner.hcpa.Runner.makespan r.Runner.delta.Runner.makespan
        r.Runner.timecost.Runner.makespan r.Runner.hcpa.Runner.work
        r.Runner.delta.Runner.work r.Runner.timecost.Runner.work)
    results;
  Rats_obs.File.write_atomic path (Buffer.contents buf)
