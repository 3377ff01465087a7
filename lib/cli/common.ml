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

(* A shape [Shape.make] refuses is a usage error (exit 124), not a crash. *)
let config_term =
  let build kind n_tasks width density regularity jump k sample =
    match
      match kind with
      | `Layered ->
          Suite.Layered
            { n_tasks; shape = Shape.make ~width ~regularity ~density () }
      | `Irregular ->
          Suite.Irregular
            { n_tasks; shape = Shape.make ~width ~regularity ~density ~jump () }
      | `Fft -> Suite.Fft { k }
      | `Strassen -> Suite.Strassen
    with
    | spec -> Ok { Suite.spec; sample }
    | exception Invalid_argument msg -> Error msg
  in
  Term.term_result' ~usage:true
    Term.(
      const build $ kind_term $ n_tasks_term $ width_term $ density_term
      $ regularity_term $ jump_term $ fft_k_term $ sample_term)

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

(* Engine and admission flags of ratsd and workload. A limit below 1 is
   a usage error (exit 124) before any arm runs or any socket is claimed,
   not an [Admission.make] exception. *)
let at_least_one name arg =
  let check n =
    if n >= 1 then Ok n else Error (Printf.sprintf "--%s: %d is not >= 1" name n)
  in
  Term.term_result' ~usage:true Term.(const check $ arg)

let queue_limit_term =
  at_least_one "queue-limit"
    Arg.(
      value & opt int 256
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:"Admission: reject when the waiting queue holds $(docv) jobs.")

let tenant_limit_term =
  at_least_one "tenant-limit"
    Arg.(
      value & opt int 64
      & info [ "tenant-limit" ] ~docv:"N"
          ~doc:
            "Admission: reject a tenant with $(docv) jobs queued or running.")

(* A NaN deadline is a usage error (exit 124), not a disabled one. *)
let deadline_term =
  let check s =
    if s > 0. then Ok (Some s)
    else if s <= 0. then Ok None
    else Error "--deadline: not a number"
  in
  Term.term_result' ~usage:true
    Term.(
      const check
      $ Arg.(
          value & opt float 0.
          & info [ "deadline" ] ~docv:"S"
              ~doc:
                "Admission: drop a queued job (expired event) if it has not \
                 started $(docv) simulated seconds after arrival; 0 \
                 disables."))

let engine_jobs_term =
  Term.(
    const (fun jobs -> if jobs = 0 then None else Some jobs)
    $ Arg.(
        value & opt int 0
        & info [ "jobs" ] ~docv:"N"
            ~doc:
              "Schedule-computation pool workers; 0 = pool default. Never \
               affects results."))

(* The daemon's socket, and the load trace ratsd --selftest plays and
   rats_client --op load submits. *)
let socket_term =
  Arg.(
    value
    & opt string "/tmp/ratsd.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~env:(Cmd.Env.info "RATS_SOCKET")
        ~doc:"Unix-domain socket ratsd listens on.")

let profile_term =
  Arg.(
    value & opt string "poisson"
    & info [ "profile" ] ~docv:"SPEC"
        ~doc:
          "Load trace (selftest, load): workload profile NAME[:key=val,…] \
           with NAME one of poisson, bursty, diurnal, pipeline or mixed \
           and keys jobs, tenants, rate, seed (see docs/WORKLOAD.md).")

type obs = { trace : string option; metrics : string option }

let obs_term =
  let path name env ~doc =
    Arg.(
      value
      & opt (some string) None
      & info [ name ] ~docv:"FILE" ~doc ~env:(Cmd.Env.info env))
  in
  (* An empty value (flag or environment) disables the file. *)
  let nonempty = function Some "" -> None | p -> p in
  Term.(
    const (fun trace metrics ->
        { trace = nonempty trace; metrics = nonempty metrics })
    $ path "trace" "RATS_TRACE"
        ~doc:
          "Record a Chrome trace-event file to $(docv) (open in \
           ui.perfetto.dev)."
    $ path "metrics" "RATS_METRICS"
        ~doc:
          "Dump the metrics registry to $(docv) at exit — JSON when $(docv) \
           ends in .json, Prometheus text otherwise.")

let write_obs { trace; metrics } =
  let prepared path =
    Rats_obs.File.mkdir_p (Filename.dirname path);
    path
  in
  (match (trace, Rats_obs.Trace.installed ()) with
  | Some path, Some t -> Rats_obs.Trace.write_chrome t (prepared path)
  | _ -> ());
  Option.iter
    (fun path ->
      if Filename.check_suffix path ".json" then
        Rats_obs.Metrics.write_json (prepared path)
      else Rats_obs.Metrics.write_prometheus (prepared path))
    metrics

(* [at_exit] rather than [Fun.protect]: a failing run's partial trace is
   usually exactly what one wants to see, and [exit 1] skips [~finally]. *)
let start_obs obs =
  if obs.trace <> None then Rats_obs.Trace.install (Rats_obs.Trace.create ());
  if obs.trace <> None || obs.metrics <> None then
    at_exit (fun () -> write_obs obs)
