module Core = Rats_core

let flop_factors = [ 8.; 4.; 2.; 1.; 0.5; 0.25 ]

type point = {
  flop_factor : float;
  ccr : float;
  delta_relative : float;
  timecost_relative : float;
}

let delta = Runner.mapped (Core.Rats.Delta Core.Rats.naive_delta)
let timecost = Runner.mapped (Core.Rats.Timecost Core.Rats.naive_timecost)

(* One batch for every factor; at factor 1 the cells are Figure 2's. *)
let run ?exec cluster configs =
  let lookup =
    Runner.run_cells ?exec
      (List.concat_map
         (fun flop_factor ->
           List.concat_map
             (fun config ->
               List.map
                 (Runner.cell ~flop_factor cluster config)
                 [ Runner.hcpa; delta; timecost ])
             configs)
         flop_factors)
  in
  List.filter_map
    (fun flop_factor ->
      let survived =
        List.filter
          (fun config ->
            Option.is_some
              (lookup (Runner.cell ~flop_factor cluster config Runner.hcpa)))
          configs
      in
      let relative arm =
        Runner.relative_makespan lookup ~flop_factor cluster survived arm
      in
      (* The CCR column is a property of the problem, not a measurement. *)
      let ccr =
        Runner.mean
          (List.map
             (fun config ->
               (Autotune.features (Runner.problem ~flop_factor cluster config))
                 .Autotune.ccr)
             survived)
      in
      (* A factor whose configurations all failed yields no point rather
         than empty columns. *)
      match (ccr, relative delta, relative timecost) with
      | Some ccr, Some delta_relative, Some timecost_relative ->
          Some { flop_factor; ccr; delta_relative; timecost_relative }
      | _ -> None)
    flop_factors

let print ppf points =
  Format.fprintf ppf
    "CCR crossover: makespan relative to HCPA as communication dominance \
     varies@.";
  Format.fprintf ppf "  %10s %8s %8s %10s@." "flop-scale" "CCR" "delta"
    "time-cost";
  List.iter
    (fun p ->
      Format.fprintf ppf "  %10.2f %8.2f %8.3f %10.3f@." p.flop_factor p.ccr
        p.delta_relative p.timecost_relative)
    points
