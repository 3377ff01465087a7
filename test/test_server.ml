(* Tests for the online scheduling service (lib/server): API and protocol
   codecs, the admission/queueing discipline, online-engine determinism
   (across runs, worker counts and journal resume), agreement between the
   shared-engine replay and the offline evaluator, and the daemon's
   session state machine driven through buffer-backed writers. *)

module Api = Rats_server.Api
module Protocol = Rats_server.Protocol
module Admission = Rats_server.Admission
module Jobq = Rats_server.Jobq
module Engine = Rats_server.Engine
module Load = Rats_server.Load
module Session = Rats_server.Session
module Profile = Rats_workload.Profile
module Trace = Rats_workload.Trace
module Report = Rats_workload.Report
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
          let r = request ~tenant:"alice" ~strategy ~procs:7 job in
          roundtrip Api.request_to_json Api.request_of_json ( = ) "request" r;
          roundtrip
            (fun (at, r) -> Api.submission_to_json ~at r)
            Api.submission_of_json ( = ) "submission" (12.5, r))
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
          }));
  (* Non-finite task or edge values are malformed DAGs too: in-process
     callers can build them, the JSON parser cannot. *)
  let task = { Api.data_elements = 1e6; flop = 1e9; alpha = 0.1 } in
  List.iter
    (fun (what, tasks, bytes) ->
      let r =
        request
          (Api.Inline
             { name = what; tasks; edges = [ { Api.src = 0; dst = 1; bytes } ] })
      in
      match Api.validate ~n_procs r with
      | Error e when String.starts_with ~prefix:"malformed DAG: " e -> ()
      | Error e -> Alcotest.failf "%s: unexpected error %s" what e
      | Ok _ -> Alcotest.failf "%s: accepted" what)
    [
      ("flop inf", [| { task with flop = infinity }; task |], 8e6);
      ("flop nan", [| task; { task with flop = nan } |], 8e6);
      ("alpha nan", [| { task with alpha = nan }; task |], 8e6);
      ("data nan", [| { task with data_elements = nan }; task |], 8e6);
      ("bytes nan", [| task; task |], nan);
      ("bytes inf", [| task; task |], infinity);
    ]

(* The replies [Api.place] gives for fixed suite shapes, by cluster and
   strategy, as the MD5 of their JSON. Any change of an allocation, a
   mapping decision or an estimate changes a digest. *)
let test_place_digests () =
  let shape ?jump width density regularity =
    Shape.make ~width ~density ~regularity ?jump ()
  in
  let configs =
    List.map
      (fun spec -> { Suite.spec; sample = 1 })
      [
        Suite.Layered { n_tasks = 50; shape = shape 0.5 0.8 0.8 };
        Suite.Layered { n_tasks = 200; shape = shape 0.2 0.2 0.8 };
        Suite.Irregular { n_tasks = 100; shape = shape ~jump:2 0.8 0.2 0.2 };
        Suite.Irregular { n_tasks = 30; shape = shape ~jump:4 0.2 0.8 0.2 };
        Suite.Fft { k = 8 };
        Suite.Strassen;
      ]
  in
  let digest cluster strategy =
    List.map
      (fun config ->
        match Api.place ~cluster (request ~strategy (Api.Generated config)) with
        | Ok resp -> J.to_string (Api.response_to_json resp)
        | Error e -> Alcotest.failf "%s: %s" (Suite.name config) e)
      configs
    |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  List.iter
    (fun (cluster, strategy, want) ->
      check Alcotest.string
        (cluster.Cluster.name ^ " " ^ Core.Rats.strategy_name strategy)
        want (digest cluster strategy))
    [
      (Cluster.grelon, Core.Rats.Baseline, "96dbbaf387bbbe88b431977329f1aa3d");
      (Cluster.grelon, Core.Rats.Delta Core.Rats.naive_delta, "bdb05a7093dacae1f332dfa5d3f9ab1f");
      (Cluster.grelon, Core.Rats.Timecost Core.Rats.naive_timecost, "7e39ccdc0ddcb8a26583ab767aa1ab78");
      (Cluster.grillon, Core.Rats.Baseline, "e0e69644b662ce50b4fa3a96dcedb2b8");
      (Cluster.grillon, Core.Rats.Delta Core.Rats.naive_delta, "030c0848531140681ac87eb9af04b47e");
      (Cluster.grillon, Core.Rats.Timecost Core.Rats.naive_timecost, "5e7a7eef31b957f7584193d1e1b11402");
    ]

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

(* A NaN passes a [<= 0.] check. A NaN deadline would make
   [Engine.drain] spin forever, and a NaN retry-after would put
   ["retry_after":nan] on the wire, which [Json.parse] refuses. *)
let test_admission_nan_policy () =
  let refused what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | (_ : Admission.policy) -> Alcotest.failf "%s accepted" what
  in
  refused "deadline nan" (fun () ->
      Admission.make ~deadline_s:nan ~queue_limit:1 ~tenant_limit:1 ());
  List.iter
    (fun r ->
      refused (Printf.sprintf "retry_after %g" r) (fun () ->
          Admission.make ~retry_after_s:r ~queue_limit:1 ~tenant_limit:1 ()))
    [ nan; infinity; neg_infinity ];
  (* An infinite deadline is no deadline: it stays legal. *)
  ignore (Admission.make ~deadline_s:infinity ~queue_limit:1 ~tenant_limit:1 ())

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

(* A poisson trace, submitted as ratsd and rats_client do. *)
let small_trace ?(jobs = 16) cluster =
  let spec = Printf.sprintf "poisson:jobs=%d,tenants=4,rate=0.1,seed=7" jobs in
  match Profile.of_string ~cluster spec with
  | Error e -> Alcotest.fail e
  | Ok p -> Array.to_list (Load.requests (Trace.compile p))

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

(* The engine's ledger against a tally of its own event log: per tenant,
   in first-arrival order, submitted/completed/rejected/expired counts and
   the sojourns of the completed events, bit for bit and in completion
   order. The policy makes admission reject and expire jobs. *)
type tally = {
  mutable submitted : int;
  mutable completed : int;
  mutable rejected : int;
  mutable expired : int;
  mutable rev_sojourns : float list;
}

let test_engine_ledger_matches_log () =
  let cluster = Cluster.grelon in
  let policy =
    Admission.make ~deadline_s:400. ~queue_limit:8 ~tenant_limit:4 ()
  in
  let engine = Engine.create { (config cluster) with Engine.policy } in
  let stats =
    match Profile.of_string ~cluster "mixed:jobs=60" with
    | Error e -> Alcotest.fail e
    | Ok p -> play engine (Array.to_list (Load.requests (Trace.compile p)))
  in
  let tallies = ref [] in
  let tally tenant =
    match List.assoc_opt tenant !tallies with
    | Some t -> t
    | None ->
        let t =
          {
            submitted = 0;
            completed = 0;
            rejected = 0;
            expired = 0;
            rev_sojourns = [];
          }
        in
        tallies := !tallies @ [ (tenant, t) ];
        t
  in
  List.iter
    (fun (ev : Api.stamped) ->
      let t = tally ev.Api.tenant in
      match ev.Api.event with
      | Api.Submitted _ -> t.submitted <- t.submitted + 1
      | Api.Completed { sojourn; _ } ->
          t.completed <- t.completed + 1;
          t.rev_sojourns <- sojourn :: t.rev_sojourns
      | Api.Rejected _ -> t.rejected <- t.rejected + 1
      | Api.Expired _ -> t.expired <- t.expired + 1
      | Api.Admitted | Api.Queued _ | Api.Started _ | Api.Redistribution _ ->
          ())
    (Engine.events engine);
  check Alcotest.bool "rejections exercised" true (stats.Engine.rejected > 0);
  check Alcotest.bool "expiry exercised" true (stats.Engine.expired > 0);
  let rows = stats.Engine.tenants in
  check
    Alcotest.(list string)
    "tenants in first-arrival order" (List.map fst !tallies)
    (List.map (fun pt -> pt.Report.tenant) rows);
  let bits a = Array.to_list (Array.map Int64.bits_of_float a) in
  List.iter2
    (fun (tenant, t) (pt : Report.per_tenant) ->
      check Alcotest.int (tenant ^ " submitted") t.submitted pt.submitted;
      check Alcotest.int (tenant ^ " completed") t.completed pt.completed;
      check Alcotest.int (tenant ^ " rejected") t.rejected pt.rejected;
      check Alcotest.int (tenant ^ " expired") t.expired pt.expired;
      check
        Alcotest.(list int64)
        (tenant ^ " sojourns")
        (bits (Array.of_list (List.rev t.rev_sojourns)))
        (bits pt.sojourns))
    !tallies rows;
  let sum f = List.fold_left (fun acc pt -> acc + f pt) 0 rows in
  check Alcotest.int "submitted total" stats.Engine.submitted
    (sum (fun pt -> pt.Report.submitted));
  check Alcotest.int "completed total" stats.Engine.completed
    (sum (fun pt -> pt.Report.completed));
  check Alcotest.int "rejected total" stats.Engine.rejected
    (sum (fun pt -> pt.Report.rejected));
  check Alcotest.int "expired total" stats.Engine.expired
    (sum (fun pt -> pt.Report.expired));
  check Alcotest.int "admitted total" stats.Engine.admitted
    (List.length
       (List.filter
          (fun ev -> ev.Api.event = Api.Admitted)
          (Engine.events engine)));
  check
    Alcotest.(list int64)
    "sojourns are the rows' sojourns"
    (bits
       (Array.concat
          (List.map (fun pt -> pt.Report.sojourns) rows)))
    (bits stats.Engine.sojourns)

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
    let offline = Core.Evaluate.run (Api.plan ~cluster r) in
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
  check
    Alcotest.(result int string)
    "all submissions resumed" (Ok (List.length arrivals))
    (Engine.resume resumed);
  ignore (Engine.drain resumed);
  Journal.close journal;
  check Alcotest.bool "resumed log bit-identical" true
    (log_string resumed = reference)

(* A journal written before a check existed, or damaged on disk, may hold
   a record the engine cannot take back: resume names it in an [Error]
   instead of raising. *)
let test_journal_stale_record () =
  with_dir @@ fun dir ->
  let resume_from payload =
    let journal = Journal.open_ ~dir ~name:"stale" ~resume:false () in
    Journal.append journal ~key:"sub-00000000" payload;
    Journal.close journal;
    let journal = Journal.open_ ~dir ~name:"stale" ~resume:true () in
    let engine = Engine.create ~journal (config Cluster.chti) in
    Fun.protect
      ~finally:(fun () -> Journal.close journal)
      (fun () -> Engine.resume engine)
  in
  let stale =
    request ~strategy:(Core.Rats.Timecost { minrho = 2.; packing = true })
      (fft 4 0)
  in
  check
    Alcotest.(result int string)
    "out-of-range strategy"
    (Error "journal record sub-00000000 no longer valid: minrho outside (0, 1]")
    (resume_from (J.to_string (Api.submission_to_json ~at:0. stale)));
  check
    Alcotest.(result int string)
    "record without a request"
    (Error "journal record sub-00000000 is unreadable: missing field \"req\"")
    (resume_from {|{"at":0}|})

(* --- session: the daemon's protocol state machine ------------------------ *)

(* One connection whose writer is a buffer. [room] is how many more bytes
   the writer takes ([max_int] = never blocks, 0 = always [`Again]); with
   [keep = false] the bytes are counted but not stored. *)
type peer = {
  client : Session.client;
  out : Buffer.t;
  room : int ref;
  seen : int ref;  (* output bytes already decoded *)
  dec : Protocol.Decoder.t;
}

let connect ?(room = max_int) ?(keep = true) s =
  let out = Buffer.create 256 and room = ref room in
  let write str off len =
    if !room = 0 then `Again
    else begin
      let n = min len !room in
      if keep then Buffer.add_substring out str off n;
      if !room <> max_int then room := !room - n;
      `Wrote n
    end
  in
  {
    client = Session.connect s write;
    out;
    room;
    seen = ref 0;
    dec = Protocol.Decoder.create ();
  }

(* Every reply frame written since the last call. *)
let replies p =
  let n = Buffer.length p.out - !(p.seen) in
  Protocol.Decoder.feed p.dec
    (Bytes.unsafe_of_string (Buffer.sub p.out !(p.seen) n))
    0 n;
  p.seen := Buffer.length p.out;
  let rec pop acc =
    match Protocol.Decoder.next p.dec with
    | Ok None -> List.rev acc
    | Ok (Some doc) -> (
        match Protocol.server_of_json doc with
        | Ok m -> pop (m :: acc)
        | Error e -> Alcotest.failf "bad reply: %s" e)
    | Error e -> Alcotest.failf "reply stream: %s" e
  in
  pop []

let frame msg = Protocol.to_frame (Protocol.client_to_json msg)

let ask s p msg =
  Session.receive s p.client (frame msg);
  replies p

let reply_name = function
  | Protocol.Pong -> "pong"
  | Protocol.Ack _ -> "ack"
  | Protocol.Placed _ -> "placed"
  | Protocol.Watching -> "watching"
  | Protocol.Event _ -> "event"
  | Protocol.Drained _ -> "drained"
  | Protocol.Log _ -> "log"
  | Protocol.Stats _ -> "stats"
  | Protocol.Healthy _ -> "health"
  | Protocol.Bye -> "bye"
  | Protocol.Err e -> "error: " ^ e

let expect what want got =
  check Alcotest.(list string) what want (List.map reply_name got)

let ask_one s p msg =
  match ask s p msg with
  | [ reply ] -> reply
  | got ->
      Alcotest.failf "expected one reply, got [%s]"
        (String.concat "; " (List.map reply_name got))

let health s p =
  match ask_one s p Protocol.Health with
  | Protocol.Healthy h -> h
  | r -> Alcotest.failf "health: got %s" (reply_name r)

let health_int h key =
  match Option.bind (J.member key h) J.to_int with
  | Some n -> n
  | None -> Alcotest.failf "health: no integer %S" key

let health_bool h key =
  match J.member key h with
  | Some (J.Bool b) -> b
  | _ -> Alcotest.failf "health: no boolean %S" key

let is_err = function Protocol.Err _ -> true | _ -> false

let session ?fault ?(client_buffer = 1 lsl 30) ?(backlog_limit = 1 lsl 30)
    cluster =
  Session.create ?fault ~client_buffer ~backlog_limit
    (Engine.create (config cluster))

(* Submits the small poisson trace through [p] and drains it. *)
let load_and_drain s p =
  List.iter
    (fun (at, request) ->
      match ask_one s p (Protocol.Submit { at = Some at; request }) with
      | Protocol.Ack _ -> ()
      | r -> Alcotest.failf "submit: got %s" (reply_name r))
    (small_trace ~jobs:8 Cluster.chti);
  ask_one s p Protocol.Drain

let wire msg = J.to_string (Protocol.server_to_json msg)

let test_session_evicts_stalled_watcher () =
  let run ~watcher =
    let s = session ~client_buffer:4096 Cluster.chti in
    let w = if watcher then Some (connect ~room:0 s) else None in
    Option.iter
      (fun w -> expect "watch reply stays buffered" [] (ask s w Protocol.Watch))
      w;
    let a = connect s in
    let evicted () =
      Rats_obs.Metrics.counter_value Rats_obs.Instr.server_clients_evicted
    in
    let evicted0 = evicted () in
    let drained = wire (load_and_drain s a) in
    let log = wire (ask_one s a Protocol.Log) in
    Option.iter
      (fun w ->
        let h = health s a in
        check Alcotest.int "health evicted" 1 (health_int h "evicted");
        check Alcotest.int "evicted counter" 1 (evicted () - evicted0);
        check Alcotest.int "health watchers" 0 (health_int h "watchers");
        check Alcotest.int "health clients" 1 (health_int h "clients");
        check Alcotest.int "backlog freed" 0 (health_int h "backlog_bytes");
        check Alcotest.bool "watcher dropped" false (Session.alive w.client))
      w;
    (drained, log)
  in
  let reference = run ~watcher:false in
  check
    Alcotest.(pair string string)
    "drained reply and log unchanged" reference (run ~watcher:true)

let test_session_degraded_mode () =
  (* A stalled [log] reader holding a reply larger than the limit. *)
  let limit = 4096 in
  let s = session ~backlog_limit:limit Cluster.chti in
  let a = connect s in
  ignore (load_and_drain s a);
  let stalled = connect ~room:0 s in
  expect "log reply stays buffered" [] (ask s stalled Protocol.Log);
  let h = health s a in
  check Alcotest.bool "ready" false (health_bool h "ready");
  check Alcotest.bool "degraded" true (health_bool h "degraded");
  let backlog = health_int h "backlog_bytes" in
  check Alcotest.bool "backlog past the limit" true (backlog > limit);
  check Alcotest.bool "watch refused" true
    (is_err (ask_one s a Protocol.Watch));
  check Alcotest.bool "log refused" true (is_err (ask_one s a Protocol.Log));
  expect "ping answered" [ "pong" ] (ask s a Protocol.Ping);
  expect "stats answered" [ "stats" ] (ask s a Protocol.Stats);
  (match
     ask_one s a
       (Protocol.Submit { at = None; request = request (fft 2 0) })
   with
  | Protocol.Ack _ -> ()
  | r -> Alcotest.failf "submit while degraded: got %s" (reply_name r));
  (* Drain the stalled reply down to exactly half the limit: still
     degraded. *)
  stalled.room := backlog - (limit / 2);
  Session.flush s stalled.client;
  Session.check_backlog s;
  check Alcotest.int "backlog at half the limit" (limit / 2)
    (Session.pending stalled.client);
  check Alcotest.bool "still degraded at half the limit" false
    (health_bool (health s a) "ready");
  (* One byte more and it recovers. *)
  stalled.room := 1;
  Session.flush s stalled.client;
  Session.check_backlog s;
  check Alcotest.bool "recovered below half" true
    (health_bool (health s a) "ready");
  expect "watch accepted again" [ "watching" ] (ask s a Protocol.Watch);
  (* The stalled reader finally gets its whole reply. *)
  stalled.room := max_int;
  Session.flush s stalled.client;
  match replies stalled with
  | [ Protocol.Log events ] ->
      check Alcotest.bool "stalled log intact" true (events <> [])
  | got ->
      Alcotest.failf "stalled reader: [%s]"
        (String.concat "; " (List.map reply_name got))

let test_session_sheds_events_not_replies () =
  let limit = 4096 in
  let engine = Engine.create (config Cluster.chti) in
  let s =
    Session.create ~client_buffer:(1 lsl 30) ~backlog_limit:limit engine
  in
  let w = connect s in
  expect "watching" [ "watching" ] (ask s w Protocol.Watch);
  let a = connect s in
  ignore (load_and_drain s a);
  check Alcotest.int "every event streamed before degrading"
    (List.length (Engine.events engine))
    (List.length (replies w));
  let stalled = connect ~room:0 s in
  expect "log reply stays buffered" [] (ask s stalled Protocol.Log);
  let h = health s a in
  check Alcotest.bool "degraded" true (health_bool h "degraded");
  let shed0 = health_int h "events_shed"
  and counter0 =
    Rats_obs.Metrics.counter_value Rats_obs.Instr.server_events_shed
  and logged0 = List.length (Engine.events engine) in
  (* More work while degraded: every reply arrives, no event does. *)
  let at = Engine.now engine in
  List.iter
    (fun k ->
      match
        ask_one s a
          (Protocol.Submit
             { at = Some (at +. float_of_int k); request = request (fft 2 k) })
      with
      | Protocol.Ack _ -> ()
      | r -> Alcotest.failf "submit while degraded: got %s" (reply_name r))
    [ 0; 1; 2 ];
  expect "drained while degraded" [ "drained" ] (ask s a Protocol.Drain);
  let emitted = List.length (Engine.events engine) - logged0 in
  check Alcotest.bool "the drain emitted events" true (emitted > 0);
  expect "no event reached the watcher" [] (replies w);
  check Alcotest.int "health counts the shed events" (shed0 + emitted)
    (health_int (health s a) "events_shed");
  check Alcotest.int "shed counter" emitted
    (Rats_obs.Metrics.counter_value Rats_obs.Instr.server_events_shed
    - counter0)

(* Frames after a [shutdown] in the same chunk are left unanswered. *)
let test_session_shutdown () =
  let s = session Cluster.chti in
  let a = connect s in
  Session.receive s a.client
    (String.concat ""
       (List.map frame [ Protocol.Ping; Protocol.Shutdown; Protocol.Ping ]));
  expect "ping, then bye" [ "pong"; "bye" ] (replies a);
  check Alcotest.bool "stopped" true (Session.stopped s)

(* [crash@server.client] keys on "cid:msgs", [corrupt@server.read] on
   "cid:reads": replay that model with [Fault.fires] and check every client
   against it. Two pings per chunk keep the two counters apart. *)
let test_session_fault_sites () =
  let fault =
    match
      Fault.parse "seed=7,crash@server.client=0.1,corrupt@server.read=0.1"
    with
    | Ok f -> f
    | Error e -> Alcotest.failf "fault spec: %s" e
  in
  let s = session ~fault Cluster.chti in
  let n_clients = 12 and n_chunks = 4 in
  let peers = List.init n_clients (fun _ -> connect s) in
  let chunk = frame Protocol.Ping ^ frame Protocol.Ping in
  for _ = 1 to n_chunks do
    List.iter (fun p -> Session.receive s p.client chunk) peers
  done;
  (* The model: the replies a client should see, and how it ends. *)
  let predict cid =
    let key n = Printf.sprintf "%d:%d" cid n in
    let rec go read msgs acc =
      if read > n_chunks then (List.rev acc, `Kept)
      else if
        Fault.fires fault Fault.Corrupt ~site:"server.read" ~key:(key read)
      then (List.rev ("error" :: acc), `Corrupted)
      else
        let rec frames k msgs acc =
          if k = 0 then go (read + 1) msgs acc
          else if
            Fault.fires fault Fault.Crash ~site:"server.client"
              ~key:(key (msgs + 1))
          then (List.rev acc, `Crashed)
          else frames (k - 1) (msgs + 1) ("pong" :: acc)
        in
        frames 2 msgs acc
    in
    go 1 0 []
  in
  let ends =
    List.mapi
      (fun cid p ->
        let want, ends = predict cid in
        let got =
          List.map
            (function Protocol.Err _ -> "error" | r -> reply_name r)
            (replies p)
        in
        check Alcotest.(list string) (Printf.sprintf "client %d replies" cid)
          want got;
        check Alcotest.bool (Printf.sprintf "client %d alive" cid)
          (ends = `Kept) (Session.alive p.client);
        ends)
      peers
  in
  let count e = List.length (List.filter (( = ) e) ends) in
  check Alcotest.bool "both sites fired, some clients kept" true
    (count `Corrupted > 0 && count `Crashed > 0 && count `Kept > 0);
  check Alcotest.int "only the dropped clients are gone" (count `Kept + 1)
    (health_int (health s (connect s)) "clients")

(* An inline chain whose placement reply outgrows the frame limit: a name
   4000 bytes short of 16 MiB, as in chaos-smoke. *)
let huge_chain ~name_bytes n =
  Api.Inline
    {
      name = String.make name_bytes 'a';
      tasks =
        Array.make n { Api.data_elements = 1e6; flop = 1e10; alpha = 0.1 };
      edges =
        List.init (n - 1) (fun i -> { Api.src = i; dst = i + 1; bytes = 8e6 });
    }

let test_session_frame_limit () =
  let s = session Cluster.grillon in
  let a = connect s in
  let job = huge_chain ~name_bytes:(Protocol.max_frame - 4000) 40 in
  (match ask s a (Protocol.Plan (request job)) with
  | [ Protocol.Err e ] ->
      check Alcotest.bool ("error names size and limit: " ^ e) true
        (String.starts_with ~prefix:"reply too large: " e
        && String.ends_with
             ~suffix:"-byte payload exceeds the 16 MiB frame limit" e)
  | got ->
      Alcotest.failf "oversized plan: [%s]"
        (String.concat "; " (List.map reply_name got)));
  expect "still serving" [ "pong" ] (ask s a Protocol.Ping)

(* A job whose [submitted] event (it carries the name twice) outgrows the
   frame limit while every other event fits: that event is shed and the
   session keeps serving. *)
let test_session_oversized_event () =
  let s = session Cluster.chti in
  let w = connect ~keep:false s in
  ignore (ask s w Protocol.Watch);
  let a = connect s in
  let shed0 =
    Rats_obs.Metrics.counter_value Rats_obs.Instr.server_events_shed
  in
  let job = huge_chain ~name_bytes:(9 * 1024 * 1024) 1 in
  (match
     ask_one s a (Protocol.Submit { at = Some 0.; request = request job })
   with
  | Protocol.Ack _ -> ()
  | r -> Alcotest.failf "submit: got %s" (reply_name r));
  expect "drained" [ "drained" ] (ask s a Protocol.Drain);
  check Alcotest.int "one event shed" 1
    (Rats_obs.Metrics.counter_value Rats_obs.Instr.server_events_shed - shed0);
  check Alcotest.bool "watcher kept" true (Session.alive w.client);
  expect "still serving" [ "pong" ] (ask s a Protocol.Ping)

(* Fuzz: seeded hostile streams through [Session.receive], cut at random
   points. Every complete well-framed request gets exactly one reply, of
   the expected kind; a framing error gets one [Err] and ends the
   connection; nothing raises, and a fresh client is still served. *)
type item =
  | Req of string * bool  (* JSON payload, whether the reply must be Err *)
  | Broken of string  (* bytes that break the framing *)

let session_fuzz_test =
  let open QCheck2 in
  let n_procs = Cluster.n_procs Cluster.chti in
  let task = { Api.data_elements = 1e6; flop = 1e9; alpha = 0.2 } in
  let inline ?(tasks = [| task; task; task |]) edges =
    Api.Inline
      {
        name = "fuzz";
        tasks;
        edges =
          List.map (fun (src, dst, bytes) -> { Api.src; dst; bytes }) edges;
      }
  in
  let json msg = J.to_string (Protocol.client_to_json msg) in
  let good =
    [
      json Protocol.Ping;
      json Protocol.Health;
      json Protocol.Stats;
      json Protocol.Watch;
      json Protocol.Log;
      json (Protocol.Plan (request (fft 2 0)));
      json
        (Protocol.Plan
           (request ~procs:3 (inline [ (0, 1, 1e6); (1, 2, 0.) ])));
      (* Disconnected tasks and zero-cost work are legal. *)
      json (Protocol.Plan (request (inline [])));
      json
        (Protocol.Plan
           (request
              (inline
                 ~tasks:
                   [| { Api.data_elements = 0.; flop = 0.; alpha = 0. }; task |]
                 [ (0, 1, 0.) ])));
      json (Protocol.Submit { at = Some 1.; request = request (fft 2 1) });
    ]
  in
  let malformed =
    [
      inline [ (0, 1, 1.); (1, 0, 1.) ];  (* cycle *)
      inline [ (1, 1, 1.) ];  (* self loop *)
      inline [ (0, 3, 1.) ];  (* edge out of range *)
      inline [ (-1, 0, 1.) ];
      inline [ (0, 1, -5.) ];  (* negative bytes *)
      inline [ (0, 1, 1.); (0, 1, 2.) ];  (* duplicate edge *)
      inline ~tasks:[||] [];  (* no tasks *)
      inline ~tasks:[| { task with Api.alpha = 1.5 } |] [];
      inline ~tasks:[| { task with Api.flop = -1. } |] [];
    ]
  in
  let bad =
    [
      {|{"op":"teleport"}|};
      {|{"op":7}|};
      {|{"nop":"ping"}|};
      {|[1,2,3]|};
      {|"ping"|};
      {|null|};
      {|{"op":"plan"}|};
      {|{"op":"submit","req":{"tenant":"t"}}|};
      {|{"op":"plan","req":{"tenant":"t","job":{"kind":"fft","k":"x"}}}|};
      json (Protocol.Plan (request ~procs:(n_procs + 1) (fft 2 0)));
      json (Protocol.Plan (request ~procs:(-1) (fft 2 0)));
      json
        (Protocol.Submit { at = None; request = request ~tenant:"" (fft 2 0) });
    ]
    @ List.concat_map
        (fun job ->
          [
            json (Protocol.Plan (request job));
            json (Protocol.Submit { at = None; request = request job });
          ])
        malformed
    @ List.concat_map
        (fun strategy ->
          [
            json (Protocol.Plan (request ~strategy (fft 2 0)));
            json
              (Protocol.Submit
                 { at = None; request = request ~strategy (fft 2 0) });
          ])
        (* Strategy parameters outside their ranges. *)
        [
          Core.Rats.Delta { mindelta = 5.; maxdelta = 0.5 };
          Core.Rats.Delta { mindelta = 0.1; maxdelta = 0.5 };
          Core.Rats.Delta { mindelta = -1.5; maxdelta = 0.5 };
          Core.Rats.Delta { mindelta = -0.5; maxdelta = -1. };
          Core.Rats.Timecost { minrho = 2.; packing = true };
          Core.Rats.Timecost { minrho = 0.; packing = false };
        ]
  in
  let length n =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 n;
    Bytes.to_string b
  in
  let framed payload = length (Int32.of_int (String.length payload)) ^ payload in
  let broken =
    [
      length 0x7fffffffl ^ "{}";
      length (-1l) ^ "{}";
      length (Int32.of_int (Protocol.max_frame + 1)) ^ "{}";
      framed "{\"op\":";
      framed "not json";
      framed "";
      (* Strategy parameters past the JSON number range do not decode. *)
      framed
        {|{"op":"plan","req":{"tenant":"t","job":{"kind":"fft","k":2,"sample":0},"strategy":{"algo":"delta","mindelta":1e400,"maxdelta":0.5},"procs":0}}|};
      framed
        {|{"op":"submit","req":{"tenant":"t","job":{"kind":"fft","k":2,"sample":0},"strategy":{"algo":"delta","mindelta":-0.5,"maxdelta":1e400},"procs":0}}|};
      framed
        {|{"op":"submit","req":{"tenant":"t","job":{"kind":"fft","k":2,"sample":0},"strategy":{"algo":"timecost","minrho":-1e400,"packing":true},"procs":0}}|};
    ]
  in
  let gen =
    Gen.(
      let pick l = map (List.nth l) (int_bound (List.length l - 1)) in
      let* items =
        list_size (int_range 1 12)
          (frequency
             [
               (4, map (fun p -> Req (p, false)) (pick good));
               (4, map (fun p -> Req (p, true)) (pick bad));
               (1, map (fun b -> Broken b) (pick broken));
             ])
      in
      let* truncated = opt (pick good) in
      let* cuts = list_size (int_range 0 8) (int_range 0 8192) in
      return (items, truncated, cuts))
  in
  let print (items, truncated, cuts) =
    Printf.sprintf "items=[%s] truncated=%s cuts=[%s]"
      (String.concat "; "
         (List.map
            (function
              | Req (p, err) -> (if err then "!" else "") ^ p
              | Broken b -> Printf.sprintf "broken %S" b)
            items))
      (Option.value truncated ~default:"-")
      (String.concat "," (List.map string_of_int cuts))
  in
  let prop (items, truncated, cuts) =
    let stream =
      String.concat ""
        (List.map (function Req (p, _) -> framed p | Broken b -> b) items
        @
        match truncated with
        | Some p ->
            let f = framed p in
            [ String.sub f 0 (String.length f - 1) ]
        | None -> [])
    in
    (* The replies the stream must produce: [true] = an [Err]. *)
    let rec expected acc = function
      | [] -> List.rev acc
      | Req (_, err) :: rest -> expected (err :: acc) rest
      | Broken _ :: _ -> List.rev (true :: acc)
    in
    let want = expected [] items in
    let s = session Cluster.chti in
    let p = connect s in
    let len = String.length stream in
    let splits =
      List.sort_uniq compare (0 :: len :: List.filter (fun c -> c < len) cuts)
    in
    let rec feed = function
      | a :: (b :: _ as rest) ->
          Session.receive s p.client (String.sub stream a (b - a));
          feed rest
      | _ -> ()
    in
    feed splits;
    let got = List.map is_err (replies p) in
    if got <> want then
      Test.fail_reportf "replies %s, expected %s"
        (String.concat "" (List.map (fun e -> if e then "E" else ".") got))
        (String.concat "" (List.map (fun e -> if e then "E" else ".") want));
    let broken = List.exists (function Broken _ -> true | _ -> false) items in
    if Session.alive p.client = broken then
      Test.fail_report "connection state does not match the stream";
    (match ask s (connect s) Protocol.Ping with
    | [ Protocol.Pong ] -> ()
    | _ -> Test.fail_report "a fresh client got no pong");
    true
  in
  Seeded.to_alcotest
    (Test.make ~name:"session fuzz (hostile frames)" ~count:200 ~print gen prop)

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
          Alcotest.test_case "nan policy" `Quick test_admission_nan_policy;
          Alcotest.test_case "jobq" `Quick test_jobq;
          Alcotest.test_case "jobq remove" `Quick test_jobq_remove;
        ] );
      ("plan", [ Alcotest.test_case "place digests" `Quick test_place_digests ]);
      ( "engine",
        [
          Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
          Alcotest.test_case "invariants" `Quick test_engine_invariants;
          Alcotest.test_case "rejections" `Quick test_engine_rejections;
          Alcotest.test_case "ledger equals the event log" `Quick
            test_engine_ledger_matches_log;
          Alcotest.test_case "deadline expiry" `Quick
            test_engine_deadline_expiry;
          Alcotest.test_case "delay faults log-invariant" `Quick
            test_engine_delay_faults_invariant;
          Alcotest.test_case "matches offline evaluator" `Quick
            test_engine_matches_evaluate;
          Alcotest.test_case "journal resume" `Quick test_journal_resume;
          Alcotest.test_case "journal stale record" `Quick
            test_journal_stale_record;
        ] );
      ( "session",
        [
          Alcotest.test_case "stalled watcher evicted" `Quick
            test_session_evicts_stalled_watcher;
          Alcotest.test_case "degraded mode" `Quick test_session_degraded_mode;
          Alcotest.test_case "sheds events, never replies" `Quick
            test_session_sheds_events_not_replies;
          Alcotest.test_case "shutdown" `Quick test_session_shutdown;
          Alcotest.test_case "fault sites" `Quick test_session_fault_sites;
          Alcotest.test_case "frame limit" `Quick test_session_frame_limit;
          Alcotest.test_case "oversized event" `Quick
            test_session_oversized_event;
          session_fuzz_test;
        ] );
    ]
