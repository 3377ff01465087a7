module Fault = Rats_runtime.Fault
module Journal = Rats_runtime.Journal
module J = Rats_obs.Json
module Metrics = Rats_obs.Metrics
module Instr = Rats_obs.Instr

type writer = string -> int -> int -> [ `Wrote of int | `Again | `Closed ]

type client = {
  cid : int;
  write : writer;
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

type t = {
  engine : Engine.t;
  fault : Fault.t option;
  journal : Journal.t option;
  client_buffer : int;
  backlog_limit : int;
  mutable clients : client list;  (* live ones, in connection order *)
  mutable backlog : int;  (* sum of out_pending over live clients *)
  mutable degraded : bool;
  mutable n_evicted : int;
  mutable n_shed : int;
  mutable next_cid : int;
  mutable stopped : bool;
}

let alive c = c.alive
let pending c = c.out_pending
let stopped t = t.stopped

let kill t c =
  if c.alive then begin
    c.alive <- false;
    t.clients <- List.filter (fun c' -> c' != c) t.clients;
    t.backlog <- t.backlog - c.out_pending;
    c.out_pending <- 0;
    Queue.clear c.outq;
    c.out_cur <- "";
    c.out_off <- 0
  end

let hang_up = kill

let check_backlog t =
  if (not t.degraded) && t.backlog > t.backlog_limit then begin
    t.degraded <- true;
    Printf.eprintf
      "ratsd: degraded: %d bytes of client backlog (limit %d); shedding \
       event streams\n\
       %!"
      t.backlog t.backlog_limit
  end
  else if t.degraded && t.backlog < t.backlog_limit / 2 then begin
    t.degraded <- false;
    Printf.eprintf "ratsd: recovered: backlog down to %d bytes\n%!" t.backlog
  end

let evict t c reason =
  if c.alive then begin
    t.n_evicted <- t.n_evicted + 1;
    Metrics.incr Instr.server_clients_evicted;
    Printf.eprintf "ratsd: evicting client #%d (%s)\n%!" c.cid reason;
    kill t c;
    check_backlog t
  end

(* Hand the writer as much buffered output as it takes right now; never
   blocks. [`Again] leaves the rest for the next writable round. *)
let rec flush t c =
  if c.alive then
    if c.out_off >= String.length c.out_cur then (
      match Queue.take_opt c.outq with
      | None -> ()
      | Some frame ->
          c.out_cur <- frame;
          c.out_off <- 0;
          flush t c)
    else
      match
        c.write c.out_cur c.out_off (String.length c.out_cur - c.out_off)
      with
      | `Wrote 0 | `Again -> ()
      | `Wrote n ->
          c.out_off <- c.out_off + n;
          c.out_pending <- c.out_pending - n;
          t.backlog <- t.backlog - n;
          flush t c
      | `Closed -> kill t c

let shed t =
  t.n_shed <- t.n_shed + 1;
  Metrics.incr Instr.server_events_shed

let rec send t c msg =
  if c.alive then begin
    let event = match msg with Protocol.Event _ -> true | _ -> false in
    if event && t.degraded then
      (* Shed streamed events first: watchers are best-effort, command
         replies are not. *)
      shed t
    else
      match Protocol.frame (Protocol.server_to_json msg) with
      | Error _ when event -> shed t
      | Error e -> send t c (Protocol.Err ("reply too large: " ^ e))
      | Ok frame ->
          Queue.add frame c.outq;
          c.out_pending <- c.out_pending + String.length frame;
          t.backlog <- t.backlog + String.length frame;
          flush t c;
          (* The per-client budget polices the unsolicited event stream: a
             watcher that stops reading gets evicted. Replies the client
             asked for (even a large Log) may exceed the budget — the
             client is about to read them, and the global backlog limit
             still bounds the total. *)
          if event && c.out_pending > t.client_buffer then
            evict t c
              (Printf.sprintf "%d bytes of output buffered, budget %d"
                 c.out_pending t.client_buffer)
          else check_backlog t
  end

let create ?fault ?journal ~client_buffer ~backlog_limit engine =
  let t =
    {
      engine;
      fault;
      journal;
      client_buffer;
      backlog_limit;
      clients = [];
      backlog = 0;
      degraded = false;
      n_evicted = 0;
      n_shed = 0;
      next_cid = 0;
      stopped = false;
    }
  in
  (* Events stream synchronously to every watcher, including during a
     drain triggered by another connection; send only buffers (and may
     evict), it never blocks. *)
  Engine.subscribe engine (fun ev ->
      List.iter
        (fun c -> if c.watching then send t c (Protocol.Event ev))
        t.clients);
  t

let connect t write =
  let c =
    {
      cid = t.next_cid;
      write;
      decoder = Protocol.Decoder.create ();
      watching = false;
      alive = true;
      outq = Queue.create ();
      out_cur = "";
      out_off = 0;
      out_pending = 0;
      reads = 0;
      msgs = 0;
    }
  in
  t.next_cid <- t.next_cid + 1;
  t.clients <- t.clients @ [ c ];
  c

(* --- replies ------------------------------------------------------------- *)

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
      ("sojourn_p50", num (Rats_util.Stats.percentile s.Engine.sojourns 50.));
      ("sojourn_p99", num (Rats_util.Stats.percentile s.Engine.sojourns 99.));
    ]

let health_json t =
  J.Obj
    [
      ("ready", J.Bool (not t.degraded));
      ("degraded", J.Bool t.degraded);
      ("clients", int (List.length t.clients));
      ( "watchers",
        int (List.length (List.filter (fun c -> c.watching) t.clients)) );
      ("backlog_bytes", int t.backlog);
      ("evicted", int t.n_evicted);
      ("events_shed", int t.n_shed);
      ("queue_depth", int (Engine.queue_depth t.engine));
      ("free_procs", int (Engine.free_procs t.engine));
      ("now", num (Engine.now t.engine));
      ( "journal_writable",
        J.Bool
          (match t.journal with Some j -> Journal.writable j | None -> false)
      );
      ( "fault",
        match t.fault with Some f -> J.Str (Fault.spec f) | None -> J.Null );
    ]

let handle_msg t c = function
  | Protocol.Ping -> send t c Protocol.Pong
  | Protocol.Health -> send t c (Protocol.Healthy (health_json t))
  | Protocol.Watch ->
      if t.degraded then
        send t c
          (Protocol.Err
             "degraded: event streaming disabled until the backlog clears")
      else begin
        c.watching <- true;
        send t c Protocol.Watching
      end
  | Protocol.Plan request -> (
      match Api.place ~cluster:(Engine.cluster t.engine) request with
      | Ok response ->
          send t c (Protocol.Placed (Api.response_to_json response))
      | Error e -> send t c (Protocol.Err e))
  | Protocol.Submit { at; request } -> (
      match Engine.submit t.engine ?at request with
      | Ok id -> send t c (Protocol.Ack { id })
      | Error e -> send t c (Protocol.Err e))
  | Protocol.Drain ->
      let end_time = Engine.drain t.engine in
      send t c (Protocol.Drained { end_time })
  | Protocol.Log ->
      if t.degraded then
        send t c
          (Protocol.Err
             "degraded: log streaming disabled until the backlog clears")
      else send t c (Protocol.Log (Engine.events t.engine))
  | Protocol.Stats ->
      send t c (Protocol.Stats (stats_json (Engine.stats t.engine)))
  | Protocol.Shutdown ->
      send t c Protocol.Bye;
      t.stopped <- true

let key c n = Printf.sprintf "%d:%d" c.cid n

let rec drain_frames t c =
  match Protocol.Decoder.next c.decoder with
  | Ok None -> ()
  | Ok (Some doc) ->
      c.msgs <- c.msgs + 1;
      (match t.fault with
      | Some f
        when Fault.fires f Fault.Crash ~site:"server.client" ~key:(key c c.msgs)
        ->
          (* Injected mid-session disconnect: the client sees a closed
             socket, the daemon must shrug it off. *)
          Metrics.incr Instr.fault_injections;
          Printf.eprintf "ratsd: injected disconnect of client #%d\n%!" c.cid;
          kill t c
      | _ -> (
          match Protocol.client_of_json doc with
          | Ok msg -> handle_msg t c msg
          | Error e -> send t c (Protocol.Err e)));
      if c.alive && not t.stopped then drain_frames t c
  | Error e ->
      send t c (Protocol.Err ("protocol error: " ^ e));
      kill t c

let receive t c chunk =
  if c.alive then begin
    c.reads <- c.reads + 1;
    (* server.read: a corrupt chunk desynchronizes the frame stream; the
       decoder's sticky error drops exactly this client. *)
    let chunk =
      Fault.corrupt_payload t.fault ~site:"server.read" ~key:(key c c.reads)
        chunk
    in
    Protocol.Decoder.feed c.decoder (Bytes.unsafe_of_string chunk) 0
      (String.length chunk);
    drain_frames t c
  end
