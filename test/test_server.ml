(* Tests for the online scheduling service (lib/server): API and protocol
   codecs, the admission/queueing discipline, online-engine determinism
   (across runs, worker counts and journal resume), and agreement between
   the shared-engine replay and the offline evaluator. *)

module Api = Rats_server.Api
module Protocol = Rats_server.Protocol
module Admission = Rats_server.Admission
module Jobq = Rats_server.Jobq
module Engine = Rats_server.Engine
module Load = Rats_server.Load
module Profile = Rats_workload.Profile
module Trace = Rats_workload.Trace
module Suite = Rats_daggen.Suite
module Shape = Rats_daggen.Shape
module Cluster = Rats_platform.Cluster
module Journal = Rats_runtime.Journal
module Fault = Rats_runtime.Fault
module Core = Rats_core
module J = Rats_obs.Json
module Seeded = Rats_test_support.Seeded

let check = Alcotest.check

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rats_server_test_%d_%d" (Unix.getpid ()) !counter)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f))
      (Sys.readdir path) (* lint: allow D003 — deletion order is irrelevant *);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

(* A quiet configuration: no wall-clock noise in tests. *)
let config cluster = { (Engine.default_config cluster) with clock = (fun () -> 0.) }

let fft k sample = Api.Generated { Suite.spec = Suite.Fft { k }; sample }

let request ?(tenant = "t0") ?(strategy = Core.Rats.Baseline) ?(procs = 0) job =
  { Api.tenant; job; strategy; procs }

let log_string engine =
  String.concat "\n"
    (List.map (fun ev -> J.to_string (Api.stamped_to_json ev)) (Engine.events engine))

(* --- codecs -------------------------------------------------------------- *)

let roundtrip to_json of_json eq what v =
  let json = to_json v in
  (* Through the printer and parser, like the wire. *)
  match J.parse (J.to_string json) with
  | Error e -> Alcotest.failf "%s: reparse failed: %s" what e
  | Ok json' -> (
      match of_json json' with
      | Error e -> Alcotest.failf "%s: decode failed: %s" what e
      | Ok v' -> check Alcotest.bool what true (eq v v'))

let test_request_roundtrip () =
  let specs =
    [
      fft 4 2;
      Api.Generated
        {
          Suite.spec =
            Suite.Layered
              {
                n_tasks = 25;
                shape = Shape.make ~width:0.5 ~regularity:0.8 ~density:0.2 ();
              };
          sample = 1;
        };
      Api.Generated
        {
          Suite.spec =
            Suite.Irregular
              {
                n_tasks = 50;
                shape =
                  Shape.make ~width:0.2 ~regularity:0.2 ~density:0.8 ~jump:2 ();
              };
          sample = 0;
        };
      Api.Generated { Suite.spec = Suite.Strassen; sample = 3 };
      Api.Inline
        {
          name = "diamond";
          tasks =
            Array.init 4 (fun i ->
                {
                  Api.data_elements = 1000. +. float_of_int i;
                  flop = 1e9;
                  alpha = 0.9;
                });
          edges =
            [
              { Api.src = 0; dst = 1; bytes = 1e6 };
              { Api.src = 0; dst = 2; bytes = 2e6 };
              { Api.src = 1; dst = 3; bytes = 3e6 };
              { Api.src = 2; dst = 3; bytes = 4e6 };
            ];
        };
    ]
  in
  let strategies =
    [
      Core.Rats.Baseline;
      Core.Rats.Delta Core.Rats.naive_delta;
      Core.Rats.Timecost { minrho = 0.25; packing = false };
    ]
  in
  List.iter
    (fun job ->
      List.iter
        (fun strategy ->
          roundtrip Api.request_to_json Api.request_of_json ( = ) "request"
            (request ~tenant:"alice" ~strategy ~procs:7 job))
        strategies)
    specs

let test_event_roundtrip () =
  let events =
    [
      Api.Submitted { procs = 8; strategy = "delta"; spec = "fft-k4-s0" };
      Api.Admitted;
      Api.Queued { depth = 3 };
      Api.Started { procs = [ 0; 1; 5 ]; est_makespan = 12.5 };
      Api.Redistribution
        { src_task = 3; dst_task = 7; bytes = 1.5e8; started = 3.25 };
      Api.Completed
        {
          makespan = 100.125;
          sojourn = 110.5;
          waited = 10.375;
          remote_bytes = 2.5e9;
          redistributions = 4;
          avoided = 2;
        };
      Api.Rejected { reason = Api.Queue_full };
      Api.Rejected { reason = Api.Tenant_quota };
      Api.Rejected { reason = Api.Overloaded { retry_after = 2.5 } };
      Api.Expired { waited = 31.75 };
    ]
  in
  List.iteri
    (fun i event ->
      roundtrip Api.stamped_to_json Api.stamped_of_json ( = )
        (Printf.sprintf "event %d" i)
        {
          Api.t = 1.5 *. float_of_int i;
          seq = i;
          job_id = 42;
          tenant = "bob";
          job_name = "strassen-s0";
          event;
        })
    events

let test_protocol_roundtrip () =
  let req = request ~tenant:"alice" ~procs:4 (fft 2 0) in
  let client_msgs =
    [
      Protocol.Ping;
      Protocol.Plan req;
      Protocol.Submit { at = Some 3.5; request = req };
      Protocol.Submit { at = None; request = req };
      Protocol.Watch;
      Protocol.Drain;
      Protocol.Log;
      Protocol.Stats;
      Protocol.Health;
      Protocol.Shutdown;
    ]
  in
  List.iteri
    (fun i m ->
      roundtrip Protocol.client_to_json Protocol.client_of_json ( = )
        (Printf.sprintf "client msg %d" i)
        m)
    client_msgs;
  let stamped =
    {
      Api.t = 0.5;
      seq = 9;
      job_id = 1;
      tenant = "t";
      job_name = "n";
      event = Api.Admitted;
    }
  in
  let server_msgs =
    [
      Protocol.Pong;
      Protocol.Ack { id = 17 };
      Protocol.Placed (J.Obj [ ("x", J.Num 1.) ]);
      Protocol.Watching;
      Protocol.Event stamped;
      Protocol.Drained { end_time = 54.25 };
      Protocol.Log [ stamped; { stamped with Api.seq = 10 } ];
      Protocol.Stats (J.Obj [ ("completed", J.Num 3.) ]);
      Protocol.Healthy
        (J.Obj [ ("ready", J.Bool true); ("degraded", J.Bool false) ]);
      Protocol.Bye;
      Protocol.Err "nope";
    ]
  in
  List.iteri
    (fun i m ->
      roundtrip Protocol.server_to_json Protocol.server_of_json ( = )
        (Printf.sprintf "server msg %d" i)
        m)
    server_msgs

let test_decoder_chunked () =
  let docs =
    [
      Protocol.client_to_json Protocol.Ping;
      Protocol.client_to_json
        (Protocol.Submit
           { at = Some 1.; request = request ~tenant:"x" (fft 2 1) });
      Protocol.server_to_json (Protocol.Ack { id = 3 });
    ]
  in
  let stream = String.concat "" (List.map Protocol.to_frame docs) in
  (* Feed one byte at a time: framing must never depend on chunk shape. *)
  let dec = Protocol.Decoder.create () in
  let out = ref [] in
  String.iter
    (fun c ->
      Protocol.Decoder.feed dec (Bytes.make 1 c) 0 1;
      let rec pop () =
        match Protocol.Decoder.next dec with
        | Ok (Some doc) ->
            out := doc :: !out;
            pop ()
        | Ok None -> ()
        | Error e -> Alcotest.failf "decoder error: %s" e
      in
      pop ())
    stream;
  check Alcotest.int "all frames decoded" (List.length docs)
    (List.length !out);
  List.iter2
    (fun want got ->
      check Alcotest.string "frame" (J.to_string want) (J.to_string got))
    docs (List.rev !out);
  (* A hostile length prefix is a sticky error. *)
  let dec = Protocol.Decoder.create () in
  let bad = Bytes.create 4 in
  Bytes.set_int32_be bad 0 0x7fffffffl;
  Protocol.Decoder.feed dec bad 0 4;
  (match Protocol.Decoder.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized frame accepted");
  match Protocol.Decoder.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoder error not sticky"

(* Overflowing numbers parse to infinities that the journal could not
   re-read: such frames must be refused before they become a [Submit]. *)
let test_decoder_non_finite () =
  let with_overflow doc v =
    let json = J.to_string doc and lit = J.to_string (J.Num v) in
    let m = String.length lit in
    let rec find i =
      if i + m > String.length json then
        Alcotest.failf "%s not found in %s" lit json
      else if String.sub json i m = lit then i
      else find (i + 1)
    in
    let i = find 0 in
    String.sub json 0 i ^ "1e999"
    ^ String.sub json (i + m) (String.length json - i - m)
  in
  let inline flop =
    Api.Inline
      {
        name = "one";
        tasks = [| { Api.data_elements = 10.; flop; alpha = 0.5 } |];
        edges = [];
      }
  in
  let hostile =
    [
      with_overflow
        (Protocol.client_to_json
           (Protocol.Submit { at = Some 7777.25; request = request (fft 2 0) }))
        7777.25;
      with_overflow
        (Protocol.client_to_json
           (Protocol.Submit { at = None; request = request (inline 4242.5) }))
        4242.5;
    ]
  in
  (* The daemon's read path: frame, decode, then interpret. *)
  let receive payload =
    let dec = Protocol.Decoder.create () in
    let n = String.length payload in
    let frame = Bytes.create (4 + n) in
    Bytes.set_int32_be frame 0 (Int32.of_int n);
    Bytes.blit_string payload 0 frame 4 n;
    Protocol.Decoder.feed dec frame 0 (Bytes.length frame);
    match Protocol.Decoder.next dec with
    | Error _ as e -> e
    | Ok None -> Alcotest.failf "frame not decoded: %s" payload
    | Ok (Some doc) -> Protocol.client_of_json doc
  in
  List.iter
    (fun payload ->
      match receive payload with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "non-finite frame accepted: %s" payload)
    hostile

(* Fuzz: the decoder must never raise, must decode a valid prefix intact,
   and must turn any byte damage into a sticky error — regardless of how
   the stream is chunked. This is the offline twin of the daemon's
   [server.read] corruption site. *)
let decoder_fuzz_test =
  let open QCheck2 in
  let frames =
    [|
      Protocol.to_frame (Protocol.client_to_json Protocol.Ping);
      Protocol.to_frame (Protocol.client_to_json Protocol.Watch);
      Protocol.to_frame
        (Protocol.client_to_json
           (Protocol.Submit
              { at = Some 2.; request = request ~tenant:"fuzz" (fft 2 0) }));
      Protocol.to_frame (Protocol.server_to_json (Protocol.Ack { id = 9 }));
      Protocol.to_frame
        (Protocol.server_to_json (Protocol.Drained { end_time = 1.5 }));
    |]
  in
  let gen =
    Gen.(
      let* picks = list_size (int_range 1 6) (int_range 0 4) in
      let* cuts = list_size (int_range 0 12) (int_range 0 4096) in
      let* damage =
        opt (pair (int_range 0 4096) (int_range 1 255))
        (* position, xor mask *)
      in
      return (picks, cuts, damage))
  in
  let prop (picks, cuts, damage) =
    let stream = String.concat "" (List.map (fun i -> frames.(i)) picks) in
    let stream, damaged_at =
      match damage with
      | Some (pos, mask) when pos < String.length stream ->
          let b = Bytes.of_string stream in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
          (Bytes.to_string b, Some pos)
      | _ -> (stream, None)
    in
    (* Split points define the chunking; the decoder must not care. *)
    let splits =
      List.sort_uniq compare
        (0 :: String.length stream
        :: List.filter (fun c -> c <= String.length stream) cuts)
    in
    let dec = Protocol.Decoder.create () in
    let decoded = ref 0 in
    let errored = ref false in
    let rec pop () =
      if not !errored then
        match Protocol.Decoder.next dec with
        | Ok (Some _) ->
            incr decoded;
            pop ()
        | Ok None -> ()
        | Error _ -> errored := true
    in
    let rec feed = function
      | a :: (b :: _ as rest) ->
          Protocol.Decoder.feed dec (Bytes.of_string stream) a (b - a);
          pop ();
          feed rest
      | _ -> ()
    in
    feed splits;
    (* Frames wholly before any damage must have decoded; an intact
       stream must decode completely without error. *)
    let intact_prefix =
      let limit =
        match damaged_at with
        | None -> String.length stream
        | Some pos -> pos
      in
      let rec count off n = function
        | [] -> n
        | i :: rest ->
            let off' = off + String.length frames.(i) in
            if off' <= limit then count off' (n + 1) rest else n
      in
      count 0 0 picks
    in
    (match damaged_at with
    | None ->
        if !errored then Test.fail_report "error on an undamaged stream";
        if !decoded <> List.length picks then
          Test.fail_reportf "decoded %d of %d undamaged frames" !decoded
            (List.length picks)
    | Some _ ->
        (* Damage may hit a length prefix (error), a payload (error from
           the JSON parser) or may even keep the JSON well-formed; the
           only hard guarantees are prefix delivery and no crash. *)
        if !decoded < intact_prefix then
          Test.fail_reportf "decoded %d, expected at least %d before damage"
            !decoded intact_prefix);
    (* Sticky: after an error, next never yields a document again. *)
    if !errored then
      (match Protocol.Decoder.next dec with
      | Error _ -> ()
      | Ok _ -> Test.fail_report "decoder error not sticky");
    true
  in
  Seeded.to_alcotest
    (Test.make ~name:"decoder fuzz (split + corrupt)" ~count:500 gen prop)

(* --- validation and admission -------------------------------------------- *)

let test_validate () =
  let n_procs = 20 in
  let ok r =
    match Api.validate ~n_procs r with
    | Ok k -> k
    | Error e -> Alcotest.failf "unexpected rejection: %s" e
  in
  let err r =
    match Api.validate ~n_procs r with
    | Ok _ -> Alcotest.fail "invalid request accepted"
    | Error _ -> ()
  in
  check Alcotest.int "procs 0 = whole platform" 20 (ok (request (fft 2 0)));
  check Alcotest.int "explicit share" 5 (ok (request ~procs:5 (fft 2 0)));
  err (request ~procs:21 (fft 2 0));
  err (request ~procs:(-1) (fft 2 0));
  err (request ~tenant:"" (fft 2 0));
  err
    (request
       (Api.Inline { name = "empty"; tasks = [||]; edges = [] }));
  (* A cyclic inline DAG must be caught at validation. *)
  err
    (request
       (Api.Inline
          {
            name = "cycle";
            tasks =
              Array.make 2 { Api.data_elements = 1.; flop = 1.; alpha = 1. };
            edges =
              [
                { Api.src = 0; dst = 1; bytes = 1. };
                { Api.src = 1; dst = 0; bytes = 1. };
              ];
          }))

let test_admission_policy () =
  let policy = Admission.make ~queue_limit:3 ~tenant_limit:2 () in
  let decide ~queue_depth ~tenant_outstanding =
    Admission.decide policy ~queue_depth ~tenant_outstanding
  in
  check Alcotest.bool "accepts" true
    (decide ~queue_depth:0 ~tenant_outstanding:0 = Admission.Accept);
  (* Boundary: one below each limit is still in. *)
  check Alcotest.bool "queue one below limit" true
    (decide ~queue_depth:2 ~tenant_outstanding:0 = Admission.Accept);
  check Alcotest.bool "tenant one below quota" true
    (decide ~queue_depth:0 ~tenant_outstanding:1 = Admission.Accept);
  (* Boundary: exactly at each limit is out. *)
  check Alcotest.bool "queue full" true
    (decide ~queue_depth:3 ~tenant_outstanding:0
    = Admission.Reject Api.Queue_full);
  check Alcotest.bool "tenant quota" true
    (decide ~queue_depth:0 ~tenant_outstanding:2
    = Admission.Reject Api.Tenant_quota);
  check Alcotest.bool "tenant quota wins" true
    (decide ~queue_depth:3 ~tenant_outstanding:2
    = Admission.Reject Api.Tenant_quota);
  (* With the default watermark of 1.0 shedding never preempts the hard
     queue_full check. *)
  check Alcotest.int "threshold capped at queue_limit" 3
    (Admission.shed_threshold policy);
  (* Constructor validation. *)
  let invalid f = match f () with
    | exception Invalid_argument _ -> ()
    | (_ : Admission.policy) -> Alcotest.fail "invalid policy accepted"
  in
  invalid (fun () -> Admission.make ~queue_limit:0 ~tenant_limit:1 ());
  invalid (fun () -> Admission.make ~queue_limit:1 ~tenant_limit:0 ());
  invalid (fun () ->
      Admission.make ~shed_watermark:0. ~queue_limit:1 ~tenant_limit:1 ());
  invalid (fun () ->
      Admission.make ~shed_watermark:1.5 ~queue_limit:1 ~tenant_limit:1 ());
  invalid (fun () ->
      Admission.make ~retry_after_s:0. ~queue_limit:1 ~tenant_limit:1 ());
  invalid (fun () ->
      Admission.make ~deadline_s:(-1.) ~queue_limit:1 ~tenant_limit:1 ())

let test_admission_shedding () =
  let policy =
    Admission.make ~shed_watermark:0.5 ~retry_after_s:2. ~queue_limit:10
      ~tenant_limit:10 ()
  in
  let decide queue_depth =
    Admission.decide policy ~queue_depth ~tenant_outstanding:0
  in
  check Alcotest.int "threshold = ceil(0.5 * 10)" 5
    (Admission.shed_threshold policy);
  check Alcotest.bool "below watermark accepts" true
    (decide 4 = Admission.Accept);
  (* At the threshold the retry hint starts at one base unit and grows
     linearly with the overshoot — deeper queue, longer backoff. *)
  check Alcotest.bool "at watermark sheds" true
    (decide 5 = Admission.Reject (Api.Overloaded { retry_after = 2. }));
  check Alcotest.bool "overshoot scales the hint" true
    (decide 8 = Admission.Reject (Api.Overloaded { retry_after = 8. }));
  (* The hard limit still wins over shedding at full depth. *)
  check Alcotest.bool "hard limit past watermark" true
    (decide 10 = Admission.Reject Api.Queue_full);
  (* A tenant over quota is never offered a retry hint. *)
  check Alcotest.bool "tenant quota beats shedding" true
    (Admission.decide policy ~queue_depth:7 ~tenant_outstanding:10
    = Admission.Reject Api.Tenant_quota)

let test_jobq () =
  let q = Jobq.create () in
  Jobq.push q ~tenant:"a" 1;
  Jobq.push q ~tenant:"a" 2;
  Jobq.push q ~tenant:"b" 3;
  Jobq.push q ~tenant:"a" 4;
  check Alcotest.int "depth" 4 (Jobq.depth q);
  check Alcotest.int "tenant depth" 3 (Jobq.tenant_depth q "a");
  (* Tenant a's head doesn't fit: its later jobs are locked out, but b's
     job backfills. *)
  let fits x = x <> 1 in
  check Alcotest.(option int) "backfill" (Some 3) (Jobq.pop q ~fits);
  (* Everything fits: strict arrival order within tenant a. *)
  let fits _ = true in
  check Alcotest.(option int) "fifo 1" (Some 1) (Jobq.pop q ~fits);
  check Alcotest.(option int) "fifo 2" (Some 2) (Jobq.pop q ~fits);
  check Alcotest.(option int) "fifo 3" (Some 4) (Jobq.pop q ~fits);
  check Alcotest.(option int) "empty" None (Jobq.pop q ~fits)

let test_jobq_remove () =
  let q = Jobq.create () in
  Jobq.push q ~tenant:"a" 1;
  Jobq.push q ~tenant:"b" 2;
  Jobq.push q ~tenant:"a" 3;
  Jobq.push q ~tenant:"a" 1;
  (* [remove] takes the oldest match only and keeps the rest in order. *)
  check Alcotest.(option int) "removes oldest match" (Some 1)
    (Jobq.remove q ~f:(fun x -> x = 1));
  check Alcotest.int "depth after removal" 3 (Jobq.depth q);
  check Alcotest.int "tenant depth after removal" 2 (Jobq.tenant_depth q "a");
  check Alcotest.(option int) "no match" None
    (Jobq.remove q ~f:(fun x -> x = 99));
  let fits _ = true in
  check Alcotest.(option int) "order preserved 1" (Some 2) (Jobq.pop q ~fits);
  check Alcotest.(option int) "order preserved 2" (Some 3) (Jobq.pop q ~fits);
  check Alcotest.(option int) "duplicate survives" (Some 1) (Jobq.pop q ~fits);
  check Alcotest.(option int) "drained" None (Jobq.pop q ~fits);
  (* Removing a blocked tenant-head unblocks that tenant's next job. *)
  let q = Jobq.create () in
  Jobq.push q ~tenant:"a" 10;
  Jobq.push q ~tenant:"a" 11;
  let fits x = x <> 10 in
  check Alcotest.(option int) "head blocks its tenant" None (Jobq.pop q ~fits);
  check Alcotest.(option int) "expire the head" (Some 10)
    (Jobq.remove q ~f:(fun x -> x = 10));
  check Alcotest.(option int) "successor unblocked" (Some 11)
    (Jobq.pop q ~fits)

(* --- online engine ------------------------------------------------------- *)

(* The poisson preset's trace, submitted as ratsd and rats_client do. *)
let small_trace ?(jobs = 16) cluster =
  let params = { Profile.jobs; tenants = 4; rate = 0.1; seed = 7 } in
  match Profile.preset ~cluster Profile.Poisson params with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Array.to_list
        (Array.map
           (fun (job : Trace.job) -> (job.Trace.at, Load.request_of_job job))
           (Trace.compile p))

(* Submits every arrival, drains, and returns the engine's stats. *)
let play engine arrivals =
  List.iter
    (fun (at, r) ->
      match Engine.submit engine ~at r with
      | Ok (_ : int) -> ()
      | Error e -> Alcotest.failf "submit failed: %s" e)
    arrivals;
  ignore (Engine.drain engine);
  Engine.stats engine

let test_engine_deterministic () =
  let cluster = Cluster.chti in
  let arrivals = small_trace cluster in
  let run jobs =
    let engine = Engine.create { (config cluster) with Engine.jobs } in
    let stats = play engine arrivals in
    (stats, log_string engine)
  in
  let stats1, log1 = run (Some 1) in
  let _, log2 = run (Some 1) in
  check Alcotest.bool "re-run identical" true (log1 = log2);
  check Alcotest.int "all jobs completed" stats1.Engine.submitted
    (stats1.Engine.completed + stats1.Engine.rejected);
  (* Worker count must never leak into the event log. *)
  let _, log4 = run (Some 4) in
  check Alcotest.bool "jobs-setting invariant" true (log1 = log4)

let test_engine_invariants () =
  let cluster = Cluster.chti in
  let n_procs = Cluster.n_procs cluster in
  let engine = Engine.create (config cluster) in
  (* Track processor exclusivity from the event stream alone. *)
  let running = Hashtbl.create 16 (* job_id -> procs *) in
  let busy = ref 0 in
  let started_order = ref [] in
  Engine.subscribe engine (fun ev ->
      match ev.Api.event with
      | Api.Started { procs; _ } ->
          List.iter
            (fun p ->
              if p < 0 || p >= n_procs then
                Alcotest.failf "granted processor %d out of range" p;
              Hashtbl.iter
                (fun _ held ->
                  if List.mem p held then
                    Alcotest.failf "processor %d granted twice" p)
                running)
            procs;
          Hashtbl.replace running ev.Api.job_id procs;
          busy := !busy + List.length procs;
          if !busy > n_procs then
            Alcotest.failf "oversubscribed: %d of %d processors" !busy n_procs;
          started_order := (ev.Api.tenant, ev.Api.job_id) :: !started_order
      | Api.Completed _ ->
          (match Hashtbl.find_opt running ev.Api.job_id with
          | Some procs ->
              busy := !busy - List.length procs;
              Hashtbl.remove running ev.Api.job_id
          | None -> Alcotest.fail "completion of a job that never started")
      | _ -> ());
  let stats = play engine (small_trace cluster) in
  check Alcotest.int "all jobs completed" stats.Engine.submitted
    (stats.Engine.completed + stats.Engine.rejected);
  check Alcotest.int "nothing left running" 0 !busy;
  check Alcotest.bool "queueing exercised" true
    (stats.Engine.queue_depth_max > 0);
  (* FIFO within tenant: a tenant's jobs start in arrival (= id) order. *)
  let by_tenant = Hashtbl.create 8 in
  List.iter
    (fun (tenant, id) ->
      (* Reverse chronological fold: each id must be below its tenant's
         previously seen minimum. *)
      match Hashtbl.find_opt by_tenant tenant with
      | Some earlier when id >= earlier ->
          Alcotest.failf "tenant %s started job %d after job %d" tenant id
            earlier
      | _ -> Hashtbl.replace by_tenant tenant id)
    !started_order;
  check Alcotest.int "stats.completed" stats.Engine.completed
    (List.length
       (List.filter
          (fun ev ->
            match ev.Api.event with Api.Completed _ -> true | _ -> false)
          (Engine.events engine)));
  check Alcotest.bool "utilization in (0, 1]" true
    (stats.Engine.utilization > 0. && stats.Engine.utilization <= 1.)

let test_engine_rejections () =
  let cluster = Cluster.chti in
  let policy = Admission.make ~queue_limit:64 ~tenant_limit:2 () in
  let engine =
    Engine.create { (config cluster) with Engine.policy }
  in
  (* Five simultaneous whole-platform jobs from one tenant: the first is
     dispatched immediately, the second queues, the rest exceed the
     tenant's outstanding quota. *)
  for _ = 1 to 5 do
    match Engine.submit engine ~at:0. (request ~tenant:"greedy" (fft 2 0)) with
    | Ok (_ : int) -> ()
    | Error e -> Alcotest.failf "submit failed: %s" e
  done;
  ignore (Engine.drain engine);
  let stats = Engine.stats engine in
  check Alcotest.int "submitted" 5 stats.Engine.submitted;
  check Alcotest.int "admitted" 2 stats.Engine.admitted;
  check Alcotest.int "rejected" 3 stats.Engine.rejected;
  check Alcotest.int "completed" 2 stats.Engine.completed;
  let rejections =
    List.filter
      (fun ev ->
        match ev.Api.event with
        | Api.Rejected { reason = Api.Tenant_quota } -> true
        | Api.Rejected _ -> Alcotest.fail "wrong rejection reason"
        | _ -> false)
      (Engine.events engine)
  in
  check Alcotest.int "rejection events" 3 (List.length rejections)

let test_engine_deadline_expiry () =
  let cluster = Cluster.chti in
  (* A queue-wait deadline far below any makespan: whole-platform jobs
     serialize, so of a simultaneous burst only the first ever runs — the
     rest are still waiting when their deadline fires. *)
  let deadline = 1e-3 in
  let policy =
    Admission.make ~deadline_s:deadline ~queue_limit:64 ~tenant_limit:64 ()
  in
  let run () =
    let engine = Engine.create { (config cluster) with Engine.policy } in
    for _ = 1 to 4 do
      match Engine.submit engine ~at:0. (request ~tenant:"t" (fft 2 0)) with
      | Ok (_ : int) -> ()
      | Error e -> Alcotest.failf "submit failed: %s" e
    done;
    ignore (Engine.drain engine);
    engine
  in
  let engine = run () in
  let stats = Engine.stats engine in
  check Alcotest.int "submitted" 4 stats.Engine.submitted;
  check Alcotest.int "admitted" 4 stats.Engine.admitted;
  check Alcotest.int "head of burst completed" 1 stats.Engine.completed;
  check Alcotest.int "waiting tail expired" 3 stats.Engine.expired;
  check Alcotest.int "every job accounted for" 4
    (stats.Engine.completed + stats.Engine.rejected + stats.Engine.expired);
  (* Expiry events carry the queue wait, which is exactly the deadline. *)
  let expiries =
    List.filter_map
      (fun ev ->
        match ev.Api.event with
        | Api.Expired { waited } -> Some (ev.Api.t, waited)
        | _ -> None)
      (Engine.events engine)
  in
  check Alcotest.int "expiry events match stats" stats.Engine.expired
    (List.length expiries);
  List.iter
    (fun (t, waited) ->
      check (Alcotest.float 1e-9) "waited = deadline" deadline waited;
      check (Alcotest.float 1e-9) "stamped at arrival + deadline" deadline t)
    expiries;
  (* Expiry is part of the deterministic event log. *)
  check Alcotest.bool "deterministic" true
    (log_string engine = log_string (run ()))

let test_engine_delay_faults_invariant () =
  (* Delay faults stall the wall clock only: with every delay site firing
     at p=1 the event log must stay byte-identical to the unfaulted run.
     delay_s is kept microscopic so the test doesn't actually wait. *)
  let cluster = Cluster.chti in
  let arrivals = small_trace ~jobs:8 cluster in
  let fault =
    match
      Fault.parse
        "seed=1,delay_s=0.0001,delay@engine.step=1,delay@replay.task=1"
    with
    | Ok f -> f
    | Error e -> Alcotest.failf "fault spec rejected: %s" e
  in
  let run fault =
    let engine =
      Engine.create { (config cluster) with Engine.fault }
    in
    ignore (play engine arrivals);
    log_string engine
  in
  check Alcotest.bool "delay faults never change the log" true
    (run None = run (Some fault))

let test_engine_matches_evaluate () =
  (* A single job on the whole platform must behave exactly like the
     offline evaluator: same state machine, same engine, same numbers —
     on a flat cluster and on one with shared cabinet uplinks, for every
     mapping family. *)
  let strategies =
    [
      Core.Rats.Baseline;
      Core.Rats.Delta Core.Rats.naive_delta;
      Core.Rats.Timecost Core.Rats.naive_timecost;
    ]
  in
  let check_one cluster strategy =
    let what s =
      Printf.sprintf "%s/%s: %s" cluster.Cluster.name
        (Core.Rats.strategy_name strategy) s
    in
    let r = request ~strategy (fft 4 1) in
    let _, offline = Api.run_local ~cluster r in
    let engine = Engine.create (config cluster) in
    (match Engine.submit engine ~at:0. r with
    | Ok (_ : int) -> ()
    | Error e -> Alcotest.failf "submit failed: %s" e);
    ignore (Engine.drain engine);
    let events = Engine.events engine in
    (* The whole redistribution stream, bit for bit: one event per paid
       span, stamped at the arrival of its last byte. *)
    let online_spans =
      List.filter_map
        (fun ev ->
          match ev.Api.event with
          | Api.Redistribution { src_task; dst_task; bytes; started } ->
              Some (src_task, dst_task, bytes, started, ev.Api.t)
          | _ -> None)
        events
    in
    let offline_spans =
      List.map
        (fun s ->
          Core.Evaluate.
            (s.src_task, s.dst_task, s.span_bytes, s.span_start, s.span_finish))
        offline.Core.Evaluate.spans
    in
    check Alcotest.bool (what "some redistributions paid") true
      (offline_spans <> []);
    check Alcotest.bool (what "redistribution stream bit-equal") true
      (List.sort compare online_spans = List.sort compare offline_spans);
    let completed =
      List.find_map
        (fun ev ->
          match ev.Api.event with
          | Api.Completed
              {
                makespan;
                remote_bytes;
                redistributions;
                avoided;
                sojourn = _;
                waited = _;
              } ->
              Some (ev.Api.t, makespan, remote_bytes, redistributions, avoided)
          | _ -> None)
        events
    in
    match completed with
    | None -> Alcotest.fail (what "no completion event")
    | Some (at, makespan, remote_bytes, redistributions, avoided) ->
        check Alcotest.bool (what "makespan bit-equal") true
          (makespan = offline.Core.Evaluate.makespan);
        check Alcotest.bool (what "remote bytes bit-equal") true
          (remote_bytes = offline.Core.Evaluate.remote_bytes);
        check Alcotest.int (what "redistributions")
          offline.Core.Evaluate.redistributions redistributions;
        check Alcotest.int (what "avoided") offline.Core.Evaluate.avoided
          avoided;
        check Alcotest.bool (what "completion stamp = makespan") true
          (at = offline.Core.Evaluate.makespan)
  in
  List.iter
    (fun cluster -> List.iter (check_one cluster) strategies)
    [ Cluster.chti; Cluster.grelon ]

let test_journal_resume () =
  with_dir @@ fun dir ->
  let cluster = Cluster.chti in
  let arrivals = small_trace cluster in
  (* Reference: uninterrupted journaled run. *)
  let reference =
    let journal = Journal.open_ ~dir ~name:"ref" ~resume:false () in
    let engine = Engine.create ~journal (config cluster) in
    ignore (play engine arrivals);
    Journal.close journal;
    log_string engine
  in
  (* "Crashed" run: submissions journaled, then the process dies before
     draining — abandon the engine without closing anything cleanly. *)
  let journal = Journal.open_ ~dir ~name:"crash" ~resume:false () in
  let engine = Engine.create ~journal (config cluster) in
  List.iter
    (fun (at, r) -> ignore (Engine.submit engine ~at r))
    arrivals;
  Journal.close journal;
  (* Resume in a fresh engine: drain must reproduce the reference log
     byte for byte. *)
  let journal = Journal.open_ ~dir ~name:"crash" ~resume:true () in
  let resumed = Engine.create ~journal (config cluster) in
  let n = Engine.resume resumed in
  check Alcotest.int "all submissions resumed" (List.length arrivals) n;
  ignore (Engine.drain resumed);
  Journal.close journal;
  check Alcotest.bool "resumed log bit-identical" true
    (log_string resumed = reference)

let () =
  Alcotest.run "server"
    [
      ( "codecs",
        [
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "event roundtrip" `Quick test_event_roundtrip;
          Alcotest.test_case "protocol roundtrip" `Quick
            test_protocol_roundtrip;
          Alcotest.test_case "chunked decoder" `Quick test_decoder_chunked;
          Alcotest.test_case "non-finite numbers" `Quick
            test_decoder_non_finite;
          decoder_fuzz_test;
        ] );
      ( "admission",
        [
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "policy" `Quick test_admission_policy;
          Alcotest.test_case "shedding" `Quick test_admission_shedding;
          Alcotest.test_case "jobq" `Quick test_jobq;
          Alcotest.test_case "jobq remove" `Quick test_jobq_remove;
        ] );
      ( "engine",
        [
          Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
          Alcotest.test_case "invariants" `Quick test_engine_invariants;
          Alcotest.test_case "rejections" `Quick test_engine_rejections;
          Alcotest.test_case "deadline expiry" `Quick
            test_engine_deadline_expiry;
          Alcotest.test_case "delay faults log-invariant" `Quick
            test_engine_delay_faults_invariant;
          Alcotest.test_case "matches offline evaluator" `Quick
            test_engine_matches_evaluate;
          Alcotest.test_case "journal resume" `Quick test_journal_resume;
        ] );
    ]
