(* ratsd: the online scheduler-as-a-service daemon.

   Serves the Server.Engine over a Unix-domain socket speaking
   Server.Protocol (length-prefixed JSON frames): clients submit DAGs,
   subscribe to the event stream, trigger drains and read the log. The
   daemon is single-threaded by design — admission, dispatch and the
   shared simulation run inside the select loop, so the event log is a
   deterministic function of the accepted submissions, which the journal
   makes crash-recoverable (--resume).

   This file owns the sockets: the select loop accepts, reads and
   closes; Server.Session turns the bytes into replies and enforces the
   back-pressure rules (docs/SERVER.md "Failure semantics"). Client
   sockets are non-blocking, so a slow reader is evicted instead of
   head-of-line-blocking the loop. RATS_FAULT arms the server-side
   injection sites (server.read, server.client, journal.append,
   engine.step, replay.task).

   Examples:
     dune exec bin/ratsd.exe -- --socket /tmp/ratsd.sock &
     dune exec bin/ratsd.exe -- --selftest --profile poisson:jobs=200,tenants=8
     dune exec bin/ratsd.exe -- --resume --journal myrun *)

open Cmdliner
module Common = Rats_cli.Common
module Server = Rats_server
module Engine = Rats_server.Engine
module Protocol = Rats_server.Protocol
module Session = Rats_server.Session
module Profile = Rats_workload.Profile
module Trace = Rats_workload.Trace
module Report = Rats_workload.Report
module Study = Rats_workload_study.Study
module Journal = Rats_runtime.Journal
module Fault = Rats_runtime.Fault
module J = Rats_obs.Json
module Instr = Rats_obs.Instr

(* --- startup probe ------------------------------------------------------- *)

(* Only remove a socket file that no daemon answers on. A live daemon
   (answers ping) or an unidentifiable listener makes startup fail
   instead of stealing the path; a non-socket file is never touched. *)
let claim_socket_path socket_path =
  match Unix.stat socket_path with
  | exception Unix.Unix_error (ENOENT, _, _) -> Ok ()
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
      Fun.protect ~finally (fun () ->
          match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
          | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) ->
              (* Stale: nothing is listening. *)
              (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
              Ok ()
          | () -> (
              let ping =
                Protocol.to_frame (Protocol.client_to_json Protocol.Ping)
              in
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.;
              Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.;
              match
                let n = String.length ping in
                let pos = ref 0 in
                while !pos < n do
                  pos := !pos + Unix.write_substring fd ping !pos (n - !pos)
                done;
                Unix.read fd (Bytes.create 4096) 0 4096
              with
              | 0 ->
                  (* Listener hung up without answering: likely a daemon
                     shutting down — treat the path as stale. *)
                  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
                  Ok ()
              | _ ->
                  Error
                    (Printf.sprintf
                       "a live daemon is already serving %s (it answered); \
                        use --socket for a second instance"
                       socket_path)
              | exception Unix.Unix_error _ ->
                  Error
                    (Printf.sprintf
                       "something is listening on %s but did not answer a \
                        ping; refusing to replace it"
                       socket_path))))
  | _ ->
      Error
        (Printf.sprintf "%s exists and is not a socket; refusing to remove it"
           socket_path)
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cannot stat %s: %s" socket_path (Unix.error_message e))

(* --- select loop --------------------------------------------------------- *)

(* Cap the kernel-side send buffer so a non-reading client backs up into
   our accounted buffer quickly (and deterministically small --client-buffer
   settings actually bite). The kernel clamps to its own minimum. *)
let tune_sndbuf fd client_buffer =
  try Unix.setsockopt_int fd Unix.SO_SNDBUF (min client_buffer (256 * 1024))
  with Unix.Unix_error _ -> ()

(* The connection's non-blocking writer, as Session sees it. *)
let writer fd s off len =
  match Unix.write_substring fd s off len with
  | n -> `Wrote n
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> `Again
  | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> `Closed

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let final_flush session conns =
  (* Best-effort, bounded: give slow-but-live clients ~1s to take the
     shutdown replies, then close regardless. *)
  let deadline = Instr.now_s () +. 1. in
  let rec go () =
    match List.filter (fun (_, c) -> Session.pending c > 0) conns with
    | [] -> ()
    | ps when Instr.now_s () < deadline ->
        (match Unix.select [] (List.map fst ps) [] 0.05 with
        | _, writable, _ ->
            List.iter
              (fun (fd, c) ->
                if List.mem fd writable then Session.flush session c)
              ps
        | exception Unix.Unix_error (EINTR, _, _) -> ());
        go ()
    | _ -> ()
  in
  go ()

let serve session ~client_buffer socket_path =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX socket_path);
  Unix.listen lfd 64;
  Format.printf "ratsd: listening on %s@." socket_path;
  (* Each accepted socket with its session client, in accept order. *)
  let conns = ref [] in
  let buf = Bytes.create 65536 in
  while not (Session.stopped session) do
    let readable_fds =
      lfd
      :: List.filter_map
           (fun (fd, c) -> if Session.alive c then Some fd else None)
           !conns
    in
    let writable_fds =
      List.filter_map
        (fun (fd, c) -> if Session.pending c > 0 then Some fd else None)
        !conns
    in
    (match Unix.select readable_fds writable_fds [] (-1.) with
    | readable, writable, _ ->
        List.iter
          (fun fd ->
            Option.iter (Session.flush session) (List.assoc_opt fd !conns))
          writable;
        Session.check_backlog session;
        List.iter
          (fun fd ->
            if fd = lfd then begin
              let cfd, _ = Unix.accept lfd in
              Unix.set_nonblock cfd;
              tune_sndbuf cfd client_buffer;
              conns := !conns @ [ (cfd, Session.connect session (writer cfd)) ]
            end
            else
              match List.assoc_opt fd !conns with
              | Some c when Session.alive c -> (
                  match Unix.read fd buf 0 (Bytes.length buf) with
                  | 0 -> Session.hang_up session c
                  | n -> Session.receive session c (Bytes.sub_string buf 0 n)
                  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _)
                    ->
                      ()
                  | exception Unix.Unix_error (ECONNRESET, _, _) ->
                      Session.hang_up session c)
              | _ -> ())
          readable
    | exception Unix.Unix_error (EINTR, _, _) -> ());
    conns :=
      List.filter
        (fun (fd, c) -> Session.alive c || (close_quietly fd; false))
        !conns
  done;
  final_flush session !conns;
  List.iter (fun (fd, _) -> close_quietly fd) !conns;
  Unix.close lfd;
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ())

(* --- selftest: a load trace through the study runner ---------------------- *)

let selftest config spec =
  let cluster = config.Engine.cluster in
  let profile =
    match Profile.of_string ~cluster spec with
    | Ok profile -> profile
    | Error e ->
        prerr_endline ("ratsd: " ^ e);
        exit 2
  in
  let requests = Server.Load.requests (Trace.compile profile) in
  let log_bytes events =
    List.map (fun ev -> J.to_string (Server.Api.stamped_to_json ev)) events
  in
  let failures = ref 0 in
  List.iter
    (fun arm ->
      let name = Study.arm_name arm in
      Format.printf "@.=== %s: %s (%d jobs, %d tenants) ===@." name spec
        profile.Profile.n_jobs (List.length profile.Profile.tenants);
      let report, log1 = Study.run_arm config ~profile ~requests arm in
      let _, log2 = Study.run_arm config ~profile ~requests arm in
      Format.printf "%a@." Report.pp report;
      if log_bytes log1 <> log_bytes log2 then begin
        incr failures;
        Format.printf "FAIL: %s event log differs between identical runs@."
          name
      end
      else
        Format.printf "determinism: %d events, re-run byte-identical@."
          (List.length log1);
      if
        report.Report.completed + report.Report.rejected
        + report.Report.expired
        <> report.Report.jobs
      then begin
        incr failures;
        Format.printf "FAIL: %s lost jobs (%d submitted, %d completed, %d \
                       rejected, %d expired)@."
          name report.Report.jobs report.Report.completed
          report.Report.rejected report.Report.expired
      end)
    [ Study.Hcpa; Study.Delta ];
  if !failures > 0 then begin
    Format.printf "@.selftest: %d failure(s)@." !failures;
    exit 1
  end;
  Format.printf "@.selftest: OK@."

(* --- command line -------------------------------------------------------- *)

let run cluster socket selftest_flag queue_limit tenant_limit shed_watermark
    retry_after deadline client_buffer backlog_limit jobs journal_name
    journal_dir resume profile obs =
  Common.start_obs obs;
  let fault = Fault.of_env () in
  let policy =
    Rats_server.Admission.make ~shed_watermark ~retry_after_s:retry_after
      ?deadline_s:deadline
      ~queue_limit ~tenant_limit ()
  in
  let config =
    {
      (Engine.default_config cluster) with
      Engine.policy;
      jobs;
      fault;
    }
  in
  (match fault with
  | Some f -> Printf.eprintf "ratsd: fault injection armed: %s\n%!" (Fault.spec f)
  | None -> ());
  if selftest_flag then
    selftest config profile
  else begin
    match claim_socket_path socket with
    | Error msg ->
        prerr_endline ("ratsd: " ^ msg);
        exit 1
    | Ok () ->
        let journal =
          Journal.open_ ?dir:journal_dir ?fault ~name:journal_name ~resume ()
        in
        let engine = Engine.create ~journal config in
        if resume then begin
          match Engine.resume engine with
          | Ok n -> Format.printf "ratsd: resumed %d journaled submission(s)@." n
          | Error e ->
              Journal.close journal;
              prerr_endline ("ratsd: " ^ e);
              exit 1
        end;
        let session =
          Session.create ?fault ~journal ~client_buffer ~backlog_limit engine
        in
        Fun.protect
          ~finally:(fun () -> Journal.close journal)
          (fun () -> serve session ~client_buffer socket)
  end

let selftest_term =
  Arg.(
    value & flag
    & info [ "selftest" ]
        ~doc:
          "Run the simulated-time load driver instead of serving: the \
           $(b,--profile) trace under both HCPA and RATS, with a \
           byte-identical re-run determinism check. Exits non-zero on any \
           failure.")

(* Outside (0,1] (NaN included) is a usage error, exit 124. *)
let shed_watermark_term =
  let check f =
    if f > 0. && f <= 1. then Ok f
    else Error (Printf.sprintf "--shed-watermark: %g is not in (0,1]" f)
  in
  Term.term_result' ~usage:true
    Term.(
      const check
      $ Arg.(
          value & opt float 1.
          & info [ "shed-watermark" ] ~docv:"F"
              ~doc:
                "Admission: shed arrivals (reject overloaded, with a \
                 retry-after hint) once the queue is $(docv) full \
                 (fraction of the queue limit, in (0,1]); 1 disables \
                 shedding."))

(* Not finite and > 0 (NaN included) is a usage error, exit 124: every
   overloaded rejection carries this hint on the wire. *)
let retry_after_term =
  let check s =
    if s > 0. && s < infinity then Ok s
    else Error (Printf.sprintf "--retry-after: %g is not a finite number > 0" s)
  in
  Term.term_result' ~usage:true
    Term.(
      const check
      $ Arg.(
          value & opt float 1.
          & info [ "retry-after" ] ~docv:"S"
              ~doc:
                "Admission: base retry-after hint in simulated seconds \
                 carried by overloaded rejections, scaled by how far past \
                 the watermark the queue is."))

let client_buffer_term =
  Arg.(
    value
    & opt int (4 * 1024 * 1024)
    & info [ "client-buffer" ] ~docv:"BYTES"
        ~doc:
          "Evict a client once $(docv) bytes of output are buffered for it \
           (a slow or stalled reader never blocks the service).")

let backlog_limit_term =
  Arg.(
    value
    & opt int (64 * 1024 * 1024)
    & info [ "backlog-limit" ] ~docv:"BYTES"
        ~doc:
          "Degrade (shed event streams, refuse new watch/log) when the \
           total output buffered across clients exceeds $(docv) bytes; \
           recover below half.")

let journal_term =
  Arg.(
    value & opt string "ratsd"
    & info [ "journal" ] ~docv:"NAME"
        ~doc:"Journal name for crash-recoverable submissions.")

let journal_dir_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal-dir" ] ~docv:"DIR"
        ~doc:"Journal directory (default: bench_results/.journal).")

let resume_term =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Reload the journaled submissions of a previous run before \
           serving; a subsequent drain replays them bit-exactly.")

let cmd =
  Cmd.v
    (Cmd.info "ratsd"
       ~doc:"Online RATS scheduling service over a Unix-domain socket")
    Term.(
      const run $ Common.cluster_term $ Common.socket_term $ selftest_term
      $ Common.queue_limit_term $ Common.tenant_limit_term
      $ shed_watermark_term $ retry_after_term $ Common.deadline_term
      $ client_buffer_term $ backlog_limit_term $ Common.engine_jobs_term
      $ journal_term $ journal_dir_term
      $ resume_term $ Common.profile_term $ Common.obs_term)

let () = exit (Cmd.eval cmd)
