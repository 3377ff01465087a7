(* workload: trace-driven multi-tenant workload studies over the online
   engine.

   Compiles a deterministic arrival trace from a profile (see
   docs/WORKLOAD.md for the grammar), drives each requested scheduler arm
   over the same trace on a fresh engine, and prints per-arm service-level
   reports. [--csv] writes the comparison table in the byte-stable golden
   format; [--save-trace]/[--replay] round-trip the compiled trace through
   a JSON-lines file.

     dune exec bin/workload.exe -- --profile bursty:jobs=60 --arms delta,hcpa
*)

open Cmdliner
module Cluster = Rats_platform.Cluster
module Admission = Rats_server.Admission
module Engine = Rats_server.Engine
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

let run cluster profiles arms_s seed jobs queue_limit tenant_limit deadline
    csv save_trace replay trace metrics =
  Common.with_obs trace metrics @@ fun () ->
  let arms = parse_arms arms_s in
  let policy =
    Admission.make
      ?deadline_s:(if deadline > 0. then Some deadline else None)
      ~queue_limit ~tenant_limit ()
  in
  let profiles =
    List.map
      (fun s ->
        match Profile.of_string ~cluster ?seed s with
        | Ok p -> p
        | Error e -> die "%s" e)
      profiles
  in
  let config =
    {
      (Engine.default_config cluster) with
      policy;
      jobs = (if jobs = 0 then None else Some jobs);
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
          Trace.save path (Trace.compile profile);
          Format.printf "(trace: %s)@." path
      | _ -> die "--save-trace needs exactly one --profile"));
  let reports =
    match replay with
    | Some path -> (
        match profiles with
        | [ profile ] -> (
            match Trace.load path with
            | Error e -> die "%s" e
            | Ok trace ->
                List.map
                  (fun arm -> fst (Study.run_arm config ~profile ~trace arm))
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

let seed_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"S"
        ~doc:"Trace seed override (wins over the profile's seed= key).")

let jobs_term =
  Arg.(
    value & opt int 0
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Schedule-computation pool workers; 0 = pool default. Never \
           affects results.")

let queue_limit_term =
  Arg.(
    value & opt int 256
    & info [ "queue-limit" ] ~docv:"N"
        ~doc:"Admission: reject when the waiting queue holds $(docv) jobs.")

let tenant_limit_term =
  Arg.(
    value & opt int 64
    & info [ "tenant-limit" ] ~docv:"N"
        ~doc:
          "Admission: reject a tenant with $(docv) jobs queued or running.")

let deadline_term =
  Arg.(
    value & opt float 0.
    & info [ "deadline" ] ~docv:"S"
        ~doc:
          "Admission: drop a job still queued after $(docv) simulated \
           seconds; 0 disables expiry.")

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
          "Compile the (single) profile's trace and write it to $(docv) as \
           JSON lines.")

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
      const run $ Common.cluster_term $ profile_term $ arms_term $ seed_term
      $ jobs_term $ queue_limit_term $ tenant_limit_term $ deadline_term
      $ csv_term $ save_trace_term $ replay_term $ Common.trace_term
      $ Common.metrics_term)

let () = exit (Cmd.eval cmd)
