module Cluster = Rats_platform.Cluster
module Pqueue = Rats_util.Pqueue
module Metrics = Rats_obs.Metrics
module Trace = Rats_obs.Trace
module Instr = Rats_obs.Instr
module Inc = Maxmin.Incremental

type t = {
  cluster : Cluster.t;
  mutable time : float;
  events : (t -> unit) Pqueue.t;
  solver : Inc.t;
  (* Active (transferring) flows as parallel arrays, indices < n_flows, in
     activation order: the floats are unboxed, so a clock step writes no
     pointer and allocates nothing. *)
  mutable handle : Inc.handle array;  (* solver slot *)
  mutable remaining : float array;  (* bytes still to transfer *)
  mutable rate : float array;  (* fair rate as of the last refresh *)
  mutable on_complete : (t -> unit) array;
  mutable n_flows : int;
  (* Flows that finished in the current step, in activation order. *)
  mutable done_handle : Inc.handle array;
  mutable done_cb : (t -> unit) array;
  mutable rates_valid : bool;
  (* Plain (single-domain) observability counters; published to the global
     metrics registry once per [run] so the hot loop never touches an
     atomic. *)
  mutable events_processed : int;
  mutable max_queue_depth : int;
  mutable published_events : int;
}

let no_callback (_ : t) = ()

let create cluster =
  {
    cluster;
    time = 0.;
    events = Pqueue.create ();
    solver =
      Inc.create
        ~n_links:(Cluster.n_links cluster)
        ~capacity:(fun l -> (Cluster.link cluster l).Rats_platform.Link.bandwidth);
    handle = Array.make 64 (-1);
    remaining = Array.make 64 0.;
    rate = Array.make 64 0.;
    on_complete = Array.make 64 no_callback;
    n_flows = 0;
    done_handle = Array.make 64 (-1);
    done_cb = Array.make 64 no_callback;
    rates_valid = false;
    events_processed = 0;
    max_queue_depth = 0;
    published_events = 0;
  }

let cluster t = t.cluster
let now t = t.time

(* Written so that a NaN date fails the check. *)
let at t time f =
  if not (time >= t.time -. 1e-12) then
    invalid_arg
      (if Float.is_nan time then "Engine.at: NaN time"
       else "Engine.at: time in the past");
  Pqueue.push t.events (Float.max time t.time) f;
  let depth = Pqueue.size t.events in
  if depth > t.max_queue_depth then t.max_queue_depth <- depth

let after t delay f =
  if Float.is_nan delay then invalid_arg "Engine.after: NaN delay";
  at t (t.time +. Float.max 0. delay) f

(* A copy of [a] twice as long, padded with [init]. *)
let double a init =
  let n = Array.length a in
  let b = Array.make (2 * n) init in
  Array.blit a 0 b 0 n;
  b

let activate_flow t links rate_cap bytes on_complete =
  let k = t.n_flows in
  if k = Array.length t.handle then begin
    t.handle <- double t.handle (-1);
    t.remaining <- double t.remaining 0.;
    t.rate <- double t.rate 0.;
    t.on_complete <- double t.on_complete no_callback
  end;
  t.handle.(k) <- Inc.add t.solver ~links ~rate_cap;
  t.remaining.(k) <- bytes;
  t.rate.(k) <- 0.;
  t.on_complete.(k) <- on_complete;
  t.n_flows <- k + 1;
  t.rates_valid <- false

let start_flow t ~src ~dst ~bytes ~on_complete =
  if not (Float.abs bytes < infinity) then
    invalid_arg "Engine.start_flow: non-finite bytes";
  let route = Cluster.route t.cluster ~src ~dst in
  if bytes <= 0. || Array.length route = 0 then
    (* Free transfer: local copy or empty payload. Completion still goes
       through the queue so observers see a consistent event order. *)
    at t t.time (fun t -> on_complete t)
  else begin
    let latency = Cluster.one_way_latency t.cluster ~route in
    let rate_cap = Cluster.flow_rate_cap t.cluster ~route in
    after t latency (fun t -> activate_flow t route rate_cap bytes on_complete)
  end

let refresh_rates t =
  Inc.refresh t.solver;
  Inc.read_rates t.solver t.handle t.rate t.n_flows;
  t.rates_valid <- true

(* A transferred remainder below this is rounding noise (sub-microbyte). *)
let eps_bytes = 1e-6

let next_flow_completion t =
  let acc = ref infinity in
  for i = 0 to t.n_flows - 1 do
    let rate = t.rate.(i) in
    if rate > 0. then
      acc := Float.min !acc (t.time +. (t.remaining.(i) /. rate))
  done;
  !acc

(* Advance the clock to [date], draining flow payloads at current rates. A
   flow also counts as finished when its residue would drain within a
   nanosecond: otherwise a residue smaller than the clock's ulp could stall
   the simulation (time would stop advancing). *)
let advance_to t date =
  let dt = date -. t.time in
  t.time <- date;
  (* Drain each flow and compact survivors in place, in one pass, keeping
     activation order; finished flows go to the done arrays. *)
  let live = ref 0 and finished = ref 0 in
  for i = 0 to t.n_flows - 1 do
    let remaining =
      if dt > 0. then t.remaining.(i) -. (t.rate.(i) *. dt) else t.remaining.(i)
    in
    if remaining <= eps_bytes +. (t.rate.(i) *. 1e-9) then begin
      let d = !finished in
      if d = Array.length t.done_handle then begin
        t.done_handle <- double t.done_handle (-1);
        t.done_cb <- double t.done_cb no_callback
      end;
      t.done_handle.(d) <- t.handle.(i);
      t.done_cb.(d) <- t.on_complete.(i);
      finished := d + 1
    end
    else begin
      let k = !live in
      t.remaining.(k) <- remaining;
      if k < i then begin
        t.handle.(k) <- t.handle.(i);
        t.rate.(k) <- t.rate.(i);
        t.on_complete.(k) <- t.on_complete.(i)
      end;
      live := k + 1
    end
  done;
  let finished = !finished in
  if finished > 0 then begin
    Array.fill t.on_complete !live (t.n_flows - !live) no_callback;
    t.n_flows <- !live;
    t.rates_valid <- false;
    (* Newest first: completion callbacks have always run in reverse
       activation order, and schedule replay observes that order. *)
    for d = finished - 1 downto 0 do
      Inc.remove t.solver t.done_handle.(d);
      t.events_processed <- t.events_processed + 1
    done;
    for d = finished - 1 downto 0 do
      let f = t.done_cb.(d) in
      t.done_cb.(d) <- no_callback;
      f t
    done
  end

let step t =
  if not t.rates_valid then refresh_rates t;
  let t_flow = next_flow_completion t in
  let t_event =
    match Pqueue.peek t.events with None -> infinity | Some (d, _) -> d
  in
  let date = Float.min t_flow t_event in
  if date = infinity then false
  else begin
    advance_to t date;
    (* Run every callback scheduled at this date (callbacks may enqueue more
       work at the same date; keep draining). *)
    let rec drain () =
      match Pqueue.peek t.events with
      | Some (d, _) when d <= t.time +. 1e-15 -> (
          match Pqueue.pop t.events with
          | Some (_, f) ->
              t.events_processed <- t.events_processed + 1;
              f t;
              drain ()
          | None -> ())
      | _ -> ()
    in
    drain ();
    true
  end

(* Counter deltas go to the registry in one batch; repeated runs of the
   same engine publish only what the latest run added. *)
let publish t =
  let d = t.events_processed - t.published_events in
  if d > 0 then Metrics.add Instr.sim_events d;
  t.published_events <- t.events_processed;
  Metrics.observe_max Instr.sim_queue_depth_max
    (float_of_int t.max_queue_depth);
  Inc.publish t.solver

let run t =
  Trace.span ~cat:"sim" "sim:run"
    ~args:(fun () ->
      [
        ("events", string_of_int t.events_processed);
        ("max_queue_depth", string_of_int t.max_queue_depth);
      ])
    (fun () ->
      while step t do
        ()
      done;
      Metrics.incr Instr.sim_runs;
      publish t;
      t.time)

let run_until t date =
  if not (date >= t.time && date < infinity) then
    invalid_arg "Engine.run_until: date in the past or not finite";
  let continue = ref true in
  while !continue do
    if not t.rates_valid then refresh_rates t;
    let t_flow = next_flow_completion t in
    let t_event =
      match Pqueue.peek t.events with None -> infinity | Some (d, _) -> d
    in
    let next = Float.min t_flow t_event in
    if next > date then begin
      advance_to t date;
      continue := false
    end
    else ignore (step t)
  done;
  publish t
