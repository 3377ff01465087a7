(* rats_client: command-line client for the ratsd scheduling service.

   One invocation = one connection = one operation:
     dune exec bin/rats_client.exe -- --op ping
     dune exec bin/rats_client.exe -- --op submit --tenant alice --kind fft \
       --fft-k 4 --procs 16 --at 0 --drain --follow
     dune exec bin/rats_client.exe -- --op load --load-jobs 40 --rate 0.1
     dune exec bin/rats_client.exe -- --op watch --json
     dune exec bin/rats_client.exe -- --op log --json
     dune exec bin/rats_client.exe -- --op shutdown

   Every op takes --timeout (socket deadline: a wedged daemon cannot hang
   a script) and --retries (bounded exponential-backoff reconnects, for
   racing a daemon that is still starting or restarting). *)

open Cmdliner
module Server = Rats_server
module Api = Rats_server.Api
module Protocol = Rats_server.Protocol
module Load = Rats_server.Load
module Profile = Rats_workload.Profile
module Trace = Rats_workload.Trace
module Retry = Rats_runtime.Retry
module Core = Rats_core
module J = Rats_obs.Json

let fail fmt = Format.kasprintf (fun m -> prerr_endline m; exit 1) fmt

(* --- connection ---------------------------------------------------------- *)

type conn = { fd : Unix.file_descr; decoder : Protocol.Decoder.t; buf : Bytes.t }

let connect ~retries ~timeout socket =
  let attempt_once () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  in
  let policy =
    { Retry.default with Retry.retries; backoff_s = 0.1; jitter = 0.5 }
  in
  let outcome =
    Retry.run ~policy ~name:("rats_client:" ^ socket) (fun ~attempt:_ ->
        attempt_once ())
  in
  match outcome.Retry.value with
  | Error f ->
      fail "rats_client: cannot connect to %s: %s" socket
        (Retry.failure_to_string f)
  | Ok fd ->
      if timeout > 0. then begin
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout
      end;
      { fd; decoder = Protocol.Decoder.create (); buf = Bytes.create 65536 }

let send conn msg =
  let frame = Protocol.to_frame (Protocol.client_to_json msg) in
  let n = String.length frame in
  let pos = ref 0 in
  try
    while !pos < n do
      pos := !pos + Unix.write_substring conn.fd frame !pos (n - !pos)
    done
  with Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
    fail "rats_client: send timed out (is ratsd wedged?)"

(* [None] = orderly EOF. Timeouts and protocol damage are fatal. *)
let next_msg_opt conn =
  let rec go () =
    match Protocol.Decoder.next conn.decoder with
    | Error e -> fail "rats_client: %s" e
    | Ok (Some doc) -> (
        match Protocol.server_of_json doc with
        | Ok msg -> Some msg
        | Error e -> fail "rats_client: bad reply: %s" e)
    | Ok None -> (
        match Unix.read conn.fd conn.buf 0 (Bytes.length conn.buf) with
        | 0 -> None
        | n ->
            Protocol.Decoder.feed conn.decoder conn.buf 0 n;
            go ()
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
            fail "rats_client: timed out waiting for ratsd's reply")
  in
  go ()

let next_msg conn =
  match next_msg_opt conn with
  | Some msg -> msg
  | None -> fail "rats_client: connection closed by ratsd"

let print_event json ev =
  if json then print_endline (J.to_string (Api.stamped_to_json ev))
  else Format.printf "%a@." Api.pp_stamped ev

(* Waits for a non-[Event] reply, printing streamed events as they come. *)
let rec wait_reply conn json =
  match next_msg conn with
  | Protocol.Event ev ->
      print_event json ev;
      wait_reply conn json
  | msg -> msg

let expect_ok conn json =
  match wait_reply conn json with
  | Protocol.Err e -> fail "ratsd: %s" e
  | msg -> msg

(* --- operations ---------------------------------------------------------- *)

let do_drain conn json =
  send conn Protocol.Drain;
  match expect_ok conn json with
  | Protocol.Drained { end_time } ->
      Format.printf "drained: simulated end time %.6f s@." end_time
  | _ -> fail "rats_client: unexpected reply to drain"

let do_watch conn json stall =
  send conn Protocol.Watch;
  (match expect_ok conn json with
  | Protocol.Watching -> ()
  | _ -> fail "rats_client: unexpected reply to watch");
  (* A deliberate stall turns this client into the chaos harness's slow
     reader: subscribed but consuming nothing, until ratsd evicts it. *)
  if stall > 0. then Unix.sleepf stall;
  let rec go () =
    match next_msg_opt conn with
    | None -> ()  (* daemon shut down, or we were evicted *)
    | Some (Protocol.Event ev) ->
        print_event json ev;
        go ()
    | Some _ -> go ()
  in
  go ()

(* The poisson preset's trace, every job carrying the client's strategy.
   Built before connecting, so bad parameters never reach the daemon. *)
let load_trace cluster params strategy =
  match Profile.preset ~cluster Profile.Poisson params with
  | Error e ->
      prerr_endline ("rats_client: " ^ e);
      exit 2
  | Ok profile ->
      Array.map
        (fun (job : Trace.job) ->
          (job.Trace.at, { (Load.request_of_job job) with Api.strategy }))
        (Trace.compile profile)

let do_load conn json trace load_from load_to =
  let n = Array.length trace in
  let lo = max 0 load_from in
  let hi = if load_to <= 0 then n else min load_to n in
  let sent = ref 0 in
  Array.iteri
    (fun i (at, request) ->
      if i >= lo && i < hi then begin
        send conn (Protocol.Submit { at = Some at; request });
        match expect_ok conn json with
        | Protocol.Ack _ -> incr sent
        | _ -> fail "rats_client: unexpected reply to submit"
      end)
    trace;
  Format.printf "loaded: %d submission(s) (trace slice [%d,%d) of %d)@." !sent
    lo hi n

let run socket op tenant at procs follow drain json dag_file config algo
    mindelta maxdelta minrho packing retries timeout stall cluster load_jobs
    tenants rate seed load_from load_to =
  let strategy =
    match algo with
    | `Hcpa -> Core.Rats.Baseline
    | `Delta -> Core.Rats.Delta { mindelta; maxdelta }
    | `Timecost -> Core.Rats.Timecost { minrho; packing }
  in
  let job () =
    match dag_file with
    | None -> Api.Generated config
    | Some path -> (
        let contents =
          try In_channel.with_open_bin path In_channel.input_all
          with Sys_error e -> fail "rats_client: %s" e
        in
        match J.parse contents with
        | Error e -> fail "rats_client: %s: %s" path e
        | Ok doc -> (
            match Api.job_spec_of_json doc with
            | Ok spec -> spec
            | Error e -> fail "rats_client: %s: %s" path e))
  in
  let request () = { Api.tenant; job = job (); strategy; procs } in
  let trace =
    if op = `Load then
      load_trace cluster { Profile.jobs = load_jobs; tenants; rate; seed }
        strategy
    else [||]
  in
  let conn = connect ~retries ~timeout socket in
  (match op with
  | `Ping -> (
      send conn Protocol.Ping;
      match expect_ok conn json with
      | Protocol.Pong -> print_endline "pong"
      | _ -> fail "rats_client: unexpected reply to ping")
  | `Health -> (
      send conn Protocol.Health;
      match expect_ok conn json with
      | Protocol.Healthy h -> print_endline (J.to_string h)
      | _ -> fail "rats_client: unexpected reply to health")
  | `Plan -> (
      send conn (Protocol.Plan (request ()));
      match expect_ok conn json with
      | Protocol.Placed resp -> print_endline (J.to_string resp)
      | _ -> fail "rats_client: unexpected reply to plan")
  | `Submit -> (
      if follow then begin
        send conn Protocol.Watch;
        match expect_ok conn json with
        | Protocol.Watching -> ()
        | _ -> fail "rats_client: unexpected reply to watch"
      end;
      send conn (Protocol.Submit { at; request = request () });
      match expect_ok conn json with
      | Protocol.Ack { id } ->
          Format.printf "submitted: id %d@." id;
          if drain then do_drain conn json
      | _ -> fail "rats_client: unexpected reply to submit")
  | `Watch -> do_watch conn json stall
  | `Load ->
      do_load conn json trace load_from load_to;
      if drain then do_drain conn json
  | `Drain ->
      if follow then begin
        send conn Protocol.Watch;
        match expect_ok conn json with
        | Protocol.Watching -> do_drain conn json
        | _ -> fail "rats_client: unexpected reply to watch"
      end
      else do_drain conn json
  | `Log -> (
      send conn Protocol.Log;
      match expect_ok conn json with
      | Protocol.Log events -> List.iter (print_event json) events
      | _ -> fail "rats_client: unexpected reply to log")
  | `Stats -> (
      send conn Protocol.Stats;
      match expect_ok conn json with
      | Protocol.Stats s -> print_endline (J.to_string s)
      | _ -> fail "rats_client: unexpected reply to stats")
  | `Shutdown -> (
      send conn Protocol.Shutdown;
      match expect_ok conn json with
      | Protocol.Bye -> print_endline "bye"
      | _ -> fail "rats_client: unexpected reply to shutdown"));
  Unix.close conn.fd

(* --- command line -------------------------------------------------------- *)

let socket_term =
  Arg.(
    value
    & opt string "/tmp/ratsd.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~env:(Cmd.Env.info "RATS_SOCKET")
        ~doc:"Unix-domain socket ratsd listens on.")

let op_term =
  Arg.(
    value
    & opt
        (enum
           [ ("ping", `Ping); ("plan", `Plan); ("submit", `Submit);
             ("drain", `Drain); ("log", `Log); ("stats", `Stats);
             ("watch", `Watch); ("health", `Health); ("load", `Load);
             ("shutdown", `Shutdown) ])
        `Ping
    & info [ "op" ] ~docv:"OP"
        ~doc:
          "Operation: ping, plan (pure schedule, no queueing), submit, \
           drain, log, stats, watch (stream events until the daemon goes \
           away), health (liveness/readiness snapshot), load (submit a \
           slice of the Poisson load trace) or shutdown.")

let tenant_term =
  Arg.(
    value & opt string "default"
    & info [ "tenant" ] ~docv:"NAME" ~doc:"Tenant the submission belongs to.")

let at_term =
  Arg.(
    value
    & opt (some float) None
    & info [ "at" ] ~docv:"T"
        ~doc:
          "Simulated arrival time of the submission (default: the \
           service's current simulated time).")

let procs_term =
  Arg.(
    value & opt int 0
    & info [ "procs" ] ~docv:"N"
        ~doc:"Processor share to request; 0 = the whole platform.")

let follow_term =
  Arg.(
    value & flag
    & info [ "follow" ]
        ~doc:"Subscribe to the event stream and print events as they occur.")

let drain_client_term =
  Arg.(
    value & flag
    & info [ "drain" ]
        ~doc:"After a submit or load, immediately drain the service (run \
              the simulation dry).")

let json_term =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Print events as JSON lines instead of text.")

let dag_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "dag" ] ~docv:"FILE"
        ~doc:
          "Submit the inline DAG described by this JSON file instead of a \
           generated suite application.")

let algo_term =
  Arg.(
    value
    & opt (enum [ ("hcpa", `Hcpa); ("delta", `Delta); ("timecost", `Timecost) ])
        `Delta
    & info [ "algo" ] ~docv:"ALGO" ~doc:"Scheduling strategy: hcpa, delta or timecost.")

let mindelta_term =
  Arg.(value & opt float (-0.5) & info [ "mindelta" ] ~docv:"F" ~doc:"Delta packing bound in [-1,0].")

let maxdelta_term =
  Arg.(value & opt float 0.5 & info [ "maxdelta" ] ~docv:"F" ~doc:"Delta stretching bound >= 0.")

let minrho_term =
  Arg.(value & opt float 0.5 & info [ "minrho" ] ~docv:"F" ~doc:"Time-cost ratio threshold in (0,1].")

let packing_term =
  Arg.(value & opt bool true & info [ "packing" ] ~docv:"BOOL" ~doc:"Time-cost packing toggle.")

let retries_term =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry the initial connection up to $(docv) extra times with \
           bounded exponential backoff (for daemons still starting or \
           restarting).")

let timeout_term =
  Arg.(
    value & opt float 0.
    & info [ "timeout" ] ~docv:"S"
        ~doc:
          "Socket send/receive deadline in seconds; 0 = wait forever. A \
           wedged daemon then fails the op instead of hanging it.")

let stall_term =
  Arg.(
    value & opt float 0.
    & info [ "stall" ] ~docv:"S"
        ~doc:
          "watch only: after subscribing, read nothing for $(docv) \
           seconds — a deliberately slow client, for testing eviction.")

let load_jobs_term =
  Arg.(
    value
    & opt int Profile.default_params.jobs
    & info [ "load-jobs" ] ~docv:"N"
        ~doc:"load: total jobs in the generated trace.")

let tenants_term =
  Arg.(
    value
    & opt int Profile.default_params.tenants
    & info [ "tenants" ] ~docv:"N" ~doc:"load: number of tenants.")

let rate_term =
  Arg.(
    value
    & opt float Profile.default_params.rate
    & info [ "rate" ] ~docv:"R"
        ~doc:"load: aggregate arrival rate, jobs per simulated second.")

let seed_term =
  Arg.(
    value
    & opt int Profile.default_params.seed
    & info [ "seed" ] ~docv:"S" ~doc:"load: arrival-trace random seed.")

let load_from_term =
  Arg.(
    value & opt int 0
    & info [ "load-from" ] ~docv:"I"
        ~doc:
          "load: first trace index to submit (resuming a partially \
           submitted trace skips what the journal already has).")

let load_to_term =
  Arg.(
    value & opt int 0
    & info [ "load-to" ] ~docv:"J"
        ~doc:"load: submit trace indices below $(docv); 0 = to the end.")

let cmd =
  Cmd.v
    (Cmd.info "rats_client" ~doc:"Client for the ratsd scheduling service")
    Term.(
      const run $ socket_term $ op_term $ tenant_term $ at_term $ procs_term
      $ follow_term $ drain_client_term $ json_term $ dag_term
      $ Common.config_term $ algo_term $ mindelta_term $ maxdelta_term
      $ minrho_term $ packing_term $ retries_term $ timeout_term $ stall_term
      $ Common.cluster_term $ load_jobs_term $ tenants_term $ rate_term
      $ seed_term $ load_from_term $ load_to_term)

let () = exit (Cmd.eval cmd)
