(* Shared cmdliner terms of the CLI tools. *)

open Cmdliner
module Suite = Rats_daggen.Suite
module Shape = Rats_daggen.Shape
module Cluster = Rats_platform.Cluster

let cluster_conv =
  let parse s =
    match
      List.find_opt (fun c -> c.Cluster.name = String.lowercase_ascii s)
        Cluster.presets
    with
    | Some c -> Ok c
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown cluster %S (expected chti, grillon or grelon)"
               s))
  in
  Arg.conv (parse, fun ppf c -> Format.pp_print_string ppf c.Cluster.name)

let cluster_term =
  Arg.(
    value
    & opt cluster_conv Cluster.grillon
    & info [ "cluster" ] ~docv:"NAME"
        ~doc:"Target cluster: chti, grillon or grelon (Table II presets).")

let kind_term =
  Arg.(
    value
    & opt (enum [ ("layered", `Layered); ("irregular", `Irregular);
                  ("fft", `Fft); ("strassen", `Strassen) ])
        `Irregular
    & info [ "kind" ] ~docv:"KIND"
        ~doc:"Application kind: layered, irregular, fft or strassen.")

let n_tasks_term =
  Arg.(
    value & opt int 50
    & info [ "tasks"; "n" ] ~docv:"N" ~doc:"Computation tasks (random DAGs).")

let width_term =
  Arg.(value & opt float 0.5 & info [ "width" ] ~docv:"W" ~doc:"DAG width in (0,1].")

let density_term =
  Arg.(
    value & opt float 0.5 & info [ "density" ] ~docv:"D" ~doc:"Edge density in (0,1].")

let regularity_term =
  Arg.(
    value & opt float 0.5
    & info [ "regularity" ] ~docv:"R" ~doc:"Level-size regularity in (0,1].")

let jump_term =
  Arg.(
    value & opt int 1
    & info [ "jump" ] ~docv:"J" ~doc:"Jump-edge length (irregular DAGs); 1 = none.")

let fft_k_term =
  Arg.(
    value & opt int 8
    & info [ "fft-k" ] ~docv:"K" ~doc:"FFT data points (power of two >= 2).")

let sample_term =
  Arg.(
    value & opt int 0
    & info [ "sample" ] ~docv:"S" ~doc:"Sample index (selects the random seed).")

(* RATS strategy parameters (paper §III): delta's packing and stretching
   bounds, time-cost's ratio threshold and packing toggle. *)
let mindelta_term =
  Arg.(
    value & opt float (-0.5)
    & info [ "mindelta" ] ~docv:"F" ~doc:"Delta packing bound in [-1,0].")

let maxdelta_term =
  Arg.(
    value & opt float 0.5
    & info [ "maxdelta" ] ~docv:"F" ~doc:"Delta stretching bound >= 0.")

let minrho_term =
  Arg.(
    value & opt float 0.5
    & info [ "minrho" ] ~docv:"F" ~doc:"Time-cost ratio threshold in (0,1].")

let packing_term =
  Arg.(
    value & opt bool true
    & info [ "packing" ] ~docv:"BOOL" ~doc:"Time-cost packing toggle.")

let trace_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a Chrome trace-event file to $(docv) (open in \
           ui.perfetto.dev). Defaults to $(b,RATS_TRACE) when unset.")

let metrics_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Dump the metrics registry to $(docv) at exit — JSON when $(docv) \
           ends in .json, Prometheus text otherwise. Defaults to \
           $(b,RATS_METRICS) when unset.")

(* Runs [f] with tracing/metrics configured from the flags (or the
   environment) and writes the requested files even when [f] raises or
   [exit]s — the run's partial trace is usually exactly what one wants to
   see of a failing run. *)
let with_obs trace metrics f =
  Rats_obs.Obs_cli.configure ?trace ?metrics ();
  Fun.protect ~finally:Rats_obs.Obs_cli.finalize f

let config_term =
  let build kind n_tasks width density regularity jump k sample =
    let spec =
      match kind with
      | `Layered ->
          Suite.Layered
            { n_tasks; shape = Shape.make ~width ~regularity ~density () }
      | `Irregular ->
          Suite.Irregular
            { n_tasks; shape = Shape.make ~width ~regularity ~density ~jump () }
      | `Fft -> Suite.Fft { k }
      | `Strassen -> Suite.Strassen
    in
    { Suite.spec; sample }
  in
  Term.(
    const build $ kind_term $ n_tasks_term $ width_term $ density_term
    $ regularity_term $ jump_term $ fft_k_term $ sample_term)
