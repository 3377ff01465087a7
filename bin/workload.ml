(* workload: trace-driven multi-tenant workload studies over the online
   engine.

   Compiles a deterministic arrival trace from a profile (see
   docs/WORKLOAD.md for the grammar), drives each requested scheduler arm
   over the same trace on a fresh engine, and prints per-arm service-level
   reports. [--csv] writes the comparison table in the byte-stable golden
   format; [--save-trace]/[--replay] round-trip the compiled trace through
   a file of ratsd's journal records, one timed submission per line.

     dune exec bin/workload.exe -- --profile bursty:jobs=60 --arms delta,hcpa
*)

open Cmdliner
module Common = Rats_cli.Common
module Cluster = Rats_platform.Cluster
module Admission = Rats_server.Admission
module Api = Rats_server.Api
module Engine = Rats_server.Engine
module Load = Rats_server.Load
module Profile = Rats_workload.Profile
module Trace = Rats_workload.Trace
module Report = Rats_workload.Report
module Study = Rats_workload_study.Study

let die fmt = Format.kasprintf (fun m -> prerr_endline ("workload: " ^ m); exit 2) fmt

let parse_arms s =
  List.map
    (fun a ->
      match Study.arm_of_string (String.trim a) with
      | Ok arm -> arm
      | Error e -> die "%s" e)
    (String.split_on_char ',' s)

(* A replayed trace is checked whole before any arm runs: the first job
   [Engine.submit] would refuse, as submitted, ends the run. *)
let check_replay ~cluster path requests =
  Array.iteri
    (fun i ((_ : float), (r : Api.request)) ->
      match Api.validate ~n_procs:(Cluster.n_procs cluster) r with
      | Ok (_ : int) -> ()
      | Error e ->
          die "%s: job %d (%s, tenant %s): %s" path (i + 1)
            (Api.spec_name r.Api.job) r.Api.tenant e)
    requests

(* The directory of an output file is made before any arm runs, so a path
   that cannot be created ends the run at once, with one line. *)
let prepare_output path =
  let dir = Filename.dirname path in
  (try Rats_obs.File.mkdir_p dir with
  | Unix.Unix_error (e, _, arg) -> die "%s: %s" arg (Unix.error_message e));
  if not (Sys.is_directory dir) then die "%s: Not a directory" dir

let run cluster profiles arms_s jobs queue_limit tenant_limit deadline csv
    save_trace replay obs =
  Common.start_obs obs;
  let arms = parse_arms arms_s in
  Option.iter prepare_output csv;
  Option.iter prepare_output save_trace;
  let policy =
    Admission.make
      ?deadline_s:deadline
      ~queue_limit ~tenant_limit ()
  in
  let profiles =
    List.map
      (fun s ->
        match Profile.of_string ~cluster s with
        | Ok p -> p
        | Error e -> die "%s" e)
      profiles
  in
  let config =
    {
      (Engine.default_config cluster) with
      policy;
      jobs;
    }
  in
  (match (save_trace, replay) with
  | Some _, Some _ -> die "--save-trace and --replay are mutually exclusive"
  | _ -> ());
  (match save_trace with
  | None -> ()
  | Some path -> (
      match profiles with
      | [ profile ] ->
          Load.save path (Load.requests (Trace.compile profile));
          Format.printf "(trace: %s)@." path
      | _ -> die "--save-trace needs exactly one --profile"));
  let reports =
    match replay with
    | Some path -> (
        match profiles with
        | [ profile ] -> (
            match Load.load path with
            | Error e -> die "%s" e
            | Ok requests ->
                check_replay ~cluster path requests;
                List.map
                  (fun arm -> fst (Study.run_arm config ~profile ~requests arm))
                  arms)
        | _ -> die "--replay needs exactly one --profile")
    | None ->
        List.concat_map
          (fun profile -> Study.run ~arms config profile)
          profiles
  in
  List.iter (fun r -> Format.printf "%a@.@." Report.pp r) reports;
  match csv with
  | None -> ()
  | Some path ->
      Study.write_csv path reports;
      Format.printf "(csv: %s)@." path

let profile_term =
  Arg.(
    value
    & opt_all string [ "poisson" ]
    & info [ "profile" ] ~docv:"SPEC"
        ~doc:
          "Workload profile (repeatable): NAME[:key=val,…] with NAME one of \
           poisson, bursty, diurnal, pipeline or mixed and keys jobs, \
           tenants, rate, seed (see docs/WORKLOAD.md).")

let arms_term =
  Arg.(
    value & opt string "delta,hcpa,packing"
    & info [ "arms" ] ~docv:"LIST"
        ~doc:
          "Comma-separated scheduler arms to compare: delta, hcpa, \
           time-cost, packing.")

let csv_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE"
        ~doc:"Write the per-arm comparison table to $(docv) as CSV.")

let save_trace_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-trace" ] ~docv:"FILE"
        ~doc:
          "Compile the (single) profile's trace and write it to $(docv), \
           one ratsd journal record (arrival time and request) per line.")

let replay_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Replay an on-disk trace (written by $(b,--save-trace)) instead \
           of compiling the profile's; the profile still names the tenants \
           reported on.")

let cmd =
  Cmd.v
    (Cmd.info "workload"
       ~doc:
         "Trace-driven multi-tenant workload studies over the online RATS \
          engine")
    Term.(
      const run $ Common.cluster_term $ profile_term $ arms_term
      $ Common.engine_jobs_term $ Common.queue_limit_term
      $ Common.tenant_limit_term $ Common.deadline_term
      $ csv_term $ save_trace_term $ replay_term $ Common.obs_term)

let () = exit (Cmd.eval cmd)
