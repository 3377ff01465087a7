(* ratsd: the online scheduler-as-a-service daemon.

   Serves the Server.Engine over a Unix-domain socket speaking
   Server.Protocol (length-prefixed JSON frames): clients submit DAGs,
   subscribe to the event stream, trigger drains and read the log. The
   daemon is single-threaded by design — admission, dispatch and the
   shared simulation run inside the select loop, so the event log is a
   deterministic function of the accepted submissions, which the journal
   makes crash-recoverable (--resume).

   Robustness (docs/SERVER.md "Failure semantics"): client sockets are
   non-blocking with bounded per-client output buffers, so a slow reader
   is evicted instead of head-of-line-blocking the loop; when the total
   buffered output crosses --backlog-limit the daemon degrades (sheds
   event frames and refuses new watch/log streams until the backlog
   halves); RATS_FAULT arms the server-side injection sites
   (server.read, server.client, journal.append, engine.step,
   replay.task).

   Examples:
     dune exec bin/ratsd.exe -- --socket /tmp/ratsd.sock &
     dune exec bin/ratsd.exe -- --selftest --load-jobs 200 --tenants 8
     dune exec bin/ratsd.exe -- --resume --journal myrun *)

open Cmdliner
module Common = Rats_cli.Common
module Server = Rats_server
module Engine = Rats_server.Engine
module Protocol = Rats_server.Protocol
module Profile = Rats_workload.Profile
module Trace = Rats_workload.Trace
module Report = Rats_workload.Report
module Study = Rats_workload_study.Study
module Journal = Rats_runtime.Journal
module Fault = Rats_runtime.Fault
module Stats = Rats_util.Stats
module Core = Rats_core
module J = Rats_obs.Json
module Metrics = Rats_obs.Metrics
module Instr = Rats_obs.Instr

(* --- service statistics as JSON ----------------------------------------- *)

let num x = J.Num x
let int n = J.Num (float_of_int n)

let stats_json (s : Engine.stats) =
  J.Obj
    [
      ("submitted", int s.Engine.submitted);
      ("admitted", int s.Engine.admitted);
      ("rejected", int s.Engine.rejected);
      ("completed", int s.Engine.completed);
      ("expired", int s.Engine.expired);
      ("queue_depth_max", int s.Engine.queue_depth_max);
      ("busy_time", num s.Engine.busy_time);
      ("end_time", num s.Engine.end_time);
      ("utilization", num s.Engine.utilization);
      ("sojourn_p50", num (Stats.percentile s.Engine.sojourns 50.));
      ("sojourn_p99", num (Stats.percentile s.Engine.sojourns 99.));
    ]

(* --- connection handling ------------------------------------------------- *)

type client = {
  cid : int;
  fd : Unix.file_descr;
  decoder : Protocol.Decoder.t;
  mutable watching : bool;
  mutable alive : bool;
  outq : string Queue.t;  (* frames not yet started *)
  mutable out_cur : string;  (* frame currently being written *)
  mutable out_off : int;
  mutable out_pending : int;  (* total unwritten bytes across outq + out_cur *)
  mutable reads : int;  (* chunks read, keys the server.read fault site *)
  mutable msgs : int;  (* messages handled, keys server.client *)
}

type srv = {
  engine : Engine.t;
  fault : Fault.t option;
  journal : Journal.t option;
  client_buffer : int;
  backlog_limit : int;
  mutable clients : client list;
  mutable backlog : int;  (* sum of out_pending over live clients *)
  mutable degraded : bool;
  mutable n_evicted : int;
  mutable n_shed : int;
  mutable next_cid : int;
}

let kill srv client =
  if client.alive then begin
    client.alive <- false;
    srv.backlog <- srv.backlog - client.out_pending;
    client.out_pending <- 0;
    Queue.clear client.outq;
    client.out_cur <- "";
    client.out_off <- 0
  end

let update_degraded srv =
  if (not srv.degraded) && srv.backlog > srv.backlog_limit then begin
    srv.degraded <- true;
    Printf.eprintf
      "ratsd: degraded: %d bytes of client backlog (limit %d); shedding \
       event streams\n\
       %!"
      srv.backlog srv.backlog_limit
  end
  else if srv.degraded && srv.backlog < srv.backlog_limit / 2 then begin
    srv.degraded <- false;
    Printf.eprintf "ratsd: recovered: backlog down to %d bytes\n%!" srv.backlog
  end

let evict srv client reason =
  if client.alive then begin
    srv.n_evicted <- srv.n_evicted + 1;
    Metrics.incr Instr.server_clients_evicted;
    Printf.eprintf "ratsd: evicting client #%d (%s)\n%!" client.cid reason;
    kill srv client;
    update_degraded srv
  end

(* Drain as much buffered output as the socket accepts right now; never
   blocks. EAGAIN leaves the rest for the next writable round. *)
let rec flush_client srv client =
  if client.alive then
    if client.out_off >= String.length client.out_cur then (
      match Queue.take_opt client.outq with
      | None -> ()
      | Some frame ->
          client.out_cur <- frame;
          client.out_off <- 0;
          flush_client srv client)
    else
      let remaining = String.length client.out_cur - client.out_off in
      match
        Unix.write_substring client.fd client.out_cur client.out_off remaining
      with
      | 0 -> ()
      | n ->
          client.out_off <- client.out_off + n;
          client.out_pending <- client.out_pending - n;
          srv.backlog <- srv.backlog - n;
          flush_client srv client
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
          kill srv client

let send srv client msg =
  if client.alive then begin
    match msg with
    | Protocol.Event _ when srv.degraded ->
        (* Shed streamed events first: watchers are best-effort, command
           replies are not. *)
        srv.n_shed <- srv.n_shed + 1;
        Metrics.incr Instr.server_events_shed
    | _ ->
        let frame = Protocol.to_frame (Protocol.server_to_json msg) in
        Queue.add frame client.outq;
        client.out_pending <- client.out_pending + String.length frame;
        srv.backlog <- srv.backlog + String.length frame;
        flush_client srv client;
        (* The per-client budget polices the unsolicited event stream: a
           watcher that stops reading gets evicted. Replies the client
           asked for (even a large Log) may exceed the budget — the client
           is about to read them, and the global backlog limit still
           bounds the total. *)
        (match msg with
        | Protocol.Event _ when client.out_pending > srv.client_buffer ->
            evict srv client
              (Printf.sprintf "%d bytes of output buffered, budget %d"
                 client.out_pending srv.client_buffer)
        | _ -> update_degraded srv)
  end

let health_json srv =
  let watchers =
    List.length (List.filter (fun c -> c.alive && c.watching) srv.clients)
  in
  let live = List.length (List.filter (fun c -> c.alive) srv.clients) in
  J.Obj
    [
      ("ready", J.Bool (not srv.degraded));
      ("degraded", J.Bool srv.degraded);
      ("clients", int live);
      ("watchers", int watchers);
      ("backlog_bytes", int srv.backlog);
      ("evicted", int srv.n_evicted);
      ("events_shed", int srv.n_shed);
      ("queue_depth", int (Engine.queue_depth srv.engine));
      ("free_procs", int (Engine.free_procs srv.engine));
      ("now", num (Engine.now srv.engine));
      ( "journal_writable",
        J.Bool
          (match srv.journal with Some j -> Journal.writable j | None -> false)
      );
      ( "fault",
        match srv.fault with Some f -> J.Str (Fault.spec f) | None -> J.Null );
    ]

let handle_msg srv client stop = function
  | Protocol.Ping -> send srv client Protocol.Pong
  | Protocol.Health -> send srv client (Protocol.Healthy (health_json srv))
  | Protocol.Watch ->
      if srv.degraded then
        send srv client
          (Protocol.Err "degraded: event streaming disabled until the \
                         backlog clears")
      else begin
        client.watching <- true;
        send srv client Protocol.Watching
      end
  | Protocol.Plan request -> (
      let cluster = Engine.cluster srv.engine in
      match
        Server.Api.validate
          ~n_procs:(Rats_platform.Cluster.n_procs cluster)
          request
      with
      | Error e -> send srv client (Protocol.Err e)
      | Ok k ->
          let share = Server.Api.subcluster cluster k in
          let schedule = Server.Api.plan ~cluster:share request in
          let response =
            Server.Api.response_of_schedule
              ~job_name:(Server.Api.spec_name request.Server.Api.job)
              ~strategy:(Core.Rats.strategy_name request.Server.Api.strategy)
              schedule
          in
          send srv client
            (Protocol.Placed (Server.Api.response_to_json response)))
  | Protocol.Submit { at; request } -> (
      match Engine.submit srv.engine ?at request with
      | Ok id -> send srv client (Protocol.Ack { id })
      | Error e -> send srv client (Protocol.Err e))
  | Protocol.Drain ->
      let end_time = Engine.drain srv.engine in
      send srv client (Protocol.Drained { end_time })
  | Protocol.Log ->
      if srv.degraded then
        send srv client
          (Protocol.Err "degraded: log streaming disabled until the backlog \
                         clears")
      else send srv client (Protocol.Log (Engine.events srv.engine))
  | Protocol.Stats ->
      send srv client (Protocol.Stats (stats_json (Engine.stats srv.engine)))
  | Protocol.Shutdown ->
      send srv client Protocol.Bye;
      stop := true

let drain_frames srv client stop =
  let rec go () =
    match Protocol.Decoder.next client.decoder with
    | Ok None -> ()
    | Ok (Some doc) ->
        client.msgs <- client.msgs + 1;
        (match srv.fault with
        | Some f
          when Fault.fires f Fault.Crash ~site:"server.client"
                 ~key:(Printf.sprintf "%d:%d" client.cid client.msgs) ->
            (* Injected mid-session disconnect: the client sees a closed
               socket, the daemon must shrug it off. *)
            Metrics.incr Instr.fault_injections;
            Printf.eprintf "ratsd: injected disconnect of client #%d\n%!"
              client.cid;
            kill srv client
        | _ -> (
            match Protocol.client_of_json doc with
            | Ok msg -> handle_msg srv client stop msg
            | Error e -> send srv client (Protocol.Err e)));
        if client.alive && not !stop then go ()
    | Error e ->
        send srv client (Protocol.Err ("protocol error: " ^ e));
        kill srv client
  in
  go ()

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

let final_flush srv =
  (* Best-effort, bounded: give slow-but-live clients ~1s to take the
     shutdown replies, then close regardless. *)
  let deadline = Instr.now_s () +. 1. in
  let pending () =
    List.filter (fun c -> c.alive && c.out_pending > 0) srv.clients
  in
  let rec go () =
    match pending () with
    | [] -> ()
    | ps when Instr.now_s () < deadline ->
        let fds = List.map (fun c -> c.fd) ps in
        (match Unix.select [] fds [] 0.05 with
        | _, writable, _ ->
            List.iter
              (fun c -> if List.mem c.fd writable then flush_client srv c)
              ps
        | exception Unix.Unix_error (EINTR, _, _) -> ());
        go ()
    | _ -> ()
  in
  go ()

let serve srv socket_path =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX socket_path);
  Unix.listen lfd 64;
  Format.printf "ratsd: listening on %s@." socket_path;
  (* Events stream synchronously to every watcher, including during a
     drain triggered by another connection; send only buffers (and may
     evict), it never blocks the loop. *)
  Engine.subscribe srv.engine (fun ev ->
      List.iter
        (fun c -> if c.watching then send srv c (Protocol.Event ev))
        srv.clients);
  let stop = ref false in
  let buf = Bytes.create 65536 in
  while not !stop do
    let readable_fds =
      lfd
      :: List.filter_map
           (fun c -> if c.alive then Some c.fd else None)
           srv.clients
    in
    let writable_fds =
      List.filter_map
        (fun c -> if c.alive && c.out_pending > 0 then Some c.fd else None)
        srv.clients
    in
    (match Unix.select readable_fds writable_fds [] (-1.) with
    | readable, writable, _ ->
        List.iter
          (fun fd ->
            match List.find_opt (fun c -> c.fd = fd) srv.clients with
            | Some c when c.alive -> flush_client srv c
            | _ -> ())
          writable;
        update_degraded srv;
        List.iter
          (fun fd ->
            if fd = lfd then begin
              let cfd, _ = Unix.accept lfd in
              Unix.set_nonblock cfd;
              tune_sndbuf cfd srv.client_buffer;
              let cid = srv.next_cid in
              srv.next_cid <- cid + 1;
              srv.clients <-
                srv.clients
                @ [
                    {
                      cid;
                      fd = cfd;
                      decoder = Protocol.Decoder.create ();
                      watching = false;
                      alive = true;
                      outq = Queue.create ();
                      out_cur = "";
                      out_off = 0;
                      out_pending = 0;
                      reads = 0;
                      msgs = 0;
                    };
                  ]
            end
            else
              match List.find_opt (fun c -> c.fd = fd) srv.clients with
              | None -> ()
              | Some client when not client.alive -> ()
              | Some client -> (
                  match Unix.read fd buf 0 (Bytes.length buf) with
                  | 0 -> kill srv client
                  | n ->
                      client.reads <- client.reads + 1;
                      let chunk = Bytes.sub_string buf 0 n in
                      (* server.read: a corrupt chunk desynchronizes the
                         frame stream; the decoder's sticky error drops
                         exactly this client. *)
                      let chunk =
                        Fault.corrupt_payload srv.fault ~site:"server.read"
                          ~key:
                            (Printf.sprintf "%d:%d" client.cid client.reads)
                          chunk
                      in
                      Protocol.Decoder.feed client.decoder
                        (Bytes.of_string chunk) 0 (String.length chunk);
                      drain_frames srv client stop
                  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _)
                    ->
                      ()
                  | exception Unix.Unix_error (ECONNRESET, _, _) ->
                      kill srv client))
          readable
    | exception Unix.Unix_error (EINTR, _, _) -> ());
    srv.clients <-
      List.filter
        (fun c ->
          if c.alive then true
          else begin
            (try Unix.close c.fd with Unix.Unix_error _ -> ());
            false
          end)
        srv.clients
  done;
  final_flush srv;
  List.iter
    (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    srv.clients;
  Unix.close lfd;
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ())

(* --- selftest: the poisson preset through the study runner ---------------- *)

let selftest config params =
  let cluster = config.Engine.cluster in
  let profile =
    match Profile.preset ~cluster Profile.Poisson params with
    | Ok profile -> profile
    | Error e ->
        prerr_endline ("ratsd: " ^ e);
        exit 2
  in
  let trace = Trace.compile profile in
  let log_bytes events =
    List.map (fun ev -> J.to_string (Server.Api.stamped_to_json ev)) events
  in
  let failures = ref 0 in
  List.iter
    (fun arm ->
      let name = Study.arm_name arm in
      Format.printf "@.=== %s: %d jobs, %d tenants, %.3f jobs/s ===@." name
        params.Profile.jobs params.Profile.tenants params.Profile.rate;
      let report, log1 = Study.run_arm config ~profile ~trace arm in
      let _, log2 = Study.run_arm config ~profile ~trace arm in
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
    journal_dir resume load_jobs tenants rate seed obs =
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
    selftest config { Profile.jobs = load_jobs; tenants; rate; seed }
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
          let n = Engine.resume engine in
          Format.printf "ratsd: resumed %d journaled submission(s)@." n
        end;
        let srv =
          {
            engine;
            fault;
            journal = Some journal;
            client_buffer;
            backlog_limit;
            clients = [];
            backlog = 0;
            degraded = false;
            n_evicted = 0;
            n_shed = 0;
            next_cid = 0;
          }
        in
        Fun.protect
          ~finally:(fun () -> Journal.close journal)
          (fun () -> serve srv socket)
  end

let socket_term =
  Arg.(
    value
    & opt string "/tmp/ratsd.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~env:(Cmd.Env.info "RATS_SOCKET")
        ~doc:"Unix-domain socket to listen on.")

let selftest_term =
  Arg.(
    value & flag
    & info [ "selftest" ]
        ~doc:
          "Run the simulated-time load driver instead of serving: Poisson \
           arrivals from several tenants under both HCPA and RATS, with a \
           byte-identical re-run determinism check. Exits non-zero on any \
           failure.")

let shed_watermark_term =
  Arg.(
    value & opt float 1.
    & info [ "shed-watermark" ] ~docv:"F"
        ~doc:
          "Admission: shed arrivals (reject overloaded, with a retry-after \
           hint) once the queue is $(docv) full (fraction of the queue \
           limit, in (0,1]); 1 disables shedding.")

let retry_after_term =
  Arg.(
    value & opt float 1.
    & info [ "retry-after" ] ~docv:"S"
        ~doc:
          "Admission: base retry-after hint in simulated seconds carried \
           by overloaded rejections, scaled by how far past the watermark \
           the queue is.")

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

let load_jobs_term =
  Arg.(
    value
    & opt int Profile.default_params.jobs
    & info [ "load-jobs" ] ~docv:"N" ~doc:"Selftest: total jobs to submit.")

let tenants_term =
  Arg.(
    value
    & opt int Profile.default_params.tenants
    & info [ "tenants" ] ~docv:"N" ~doc:"Selftest: number of tenants.")

let rate_term =
  Arg.(
    value
    & opt float Profile.default_params.rate
    & info [ "rate" ] ~docv:"R"
        ~doc:"Selftest: aggregate arrival rate, jobs per simulated second.")

let seed_term =
  Arg.(
    value
    & opt int Profile.default_params.seed
    & info [ "seed" ] ~docv:"S" ~doc:"Selftest: arrival-trace random seed.")

let cmd =
  Cmd.v
    (Cmd.info "ratsd"
       ~doc:"Online RATS scheduling service over a Unix-domain socket")
    Term.(
      const run $ Common.cluster_term $ socket_term $ selftest_term
      $ Common.queue_limit_term $ Common.tenant_limit_term
      $ shed_watermark_term $ retry_after_term $ Common.deadline_term
      $ client_buffer_term $ backlog_limit_term $ Common.engine_jobs_term
      $ journal_term $ journal_dir_term
      $ resume_term $ load_jobs_term $ tenants_term $ rate_term $ seed_term
      $ Common.obs_term)

let () = exit (Cmd.eval cmd)
