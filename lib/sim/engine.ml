module Cluster = Rats_platform.Cluster
module Pqueue = Rats_util.Pqueue
module Metrics = Rats_obs.Metrics
module Trace = Rats_obs.Trace
module Instr = Rats_obs.Instr
module Inc = Maxmin.Incremental

type flow = {
  links : int array;
  rate_cap : float;
  mutable remaining : float;
  on_complete : t -> unit;
  mutable handle : Inc.handle;  (* solver slot while active; -1 otherwise *)
  mutable rate : float;  (* fair rate as of the last refresh *)
}

and t = {
  cluster : Cluster.t;
  mutable time : float;
  events : (t -> unit) Pqueue.t;
  solver : Inc.t;
  mutable flows : flow array;  (* active, transferring: indices < n_flows,
                                  in activation order *)
  mutable n_flows : int;
  mutable rates_valid : bool;
  (* Plain (single-domain) observability counters; published to the global
     metrics registry once per [run] so the hot loop never touches an
     atomic. *)
  mutable events_processed : int;
  mutable max_queue_depth : int;
  mutable published_events : int;
}

let dummy_flow =
  {
    links = [||];
    rate_cap = infinity;
    remaining = 0.;
    on_complete = (fun _ -> ());
    handle = -1;
    rate = 0.;
  }

let create cluster =
  {
    cluster;
    time = 0.;
    events = Pqueue.create ();
    solver =
      Inc.create
        ~n_links:(Cluster.n_links cluster)
        ~capacity:(fun l -> (Cluster.link cluster l).Rats_platform.Link.bandwidth);
    flows = Array.make 64 dummy_flow;
    n_flows = 0;
    rates_valid = false;
    events_processed = 0;
    max_queue_depth = 0;
    published_events = 0;
  }

let cluster t = t.cluster
let now t = t.time

let at t time f =
  if time < t.time -. 1e-12 then invalid_arg "Engine.at: time in the past";
  Pqueue.push t.events (Float.max time t.time) f;
  let depth = Pqueue.size t.events in
  if depth > t.max_queue_depth then t.max_queue_depth <- depth

let after t delay f = at t (t.time +. Float.max 0. delay) f

let activate_flow t flow =
  flow.handle <- Inc.add t.solver ~links:flow.links ~rate_cap:flow.rate_cap;
  if t.n_flows = Array.length t.flows then begin
    let bigger = Array.make (2 * t.n_flows) dummy_flow in
    Array.blit t.flows 0 bigger 0 t.n_flows;
    t.flows <- bigger
  end;
  t.flows.(t.n_flows) <- flow;
  t.n_flows <- t.n_flows + 1;
  t.rates_valid <- false

let start_flow t ~src ~dst ~bytes ~on_complete =
  let route = Cluster.route t.cluster ~src ~dst in
  if bytes <= 0. || Array.length route = 0 then
    (* Free transfer: local copy or empty payload. Completion still goes
       through the queue so observers see a consistent event order. *)
    at t t.time (fun t -> on_complete t)
  else begin
    let latency = Cluster.one_way_latency t.cluster ~route in
    let rate_cap = Cluster.flow_rate_cap t.cluster ~route in
    let flow =
      { links = route; rate_cap; remaining = bytes; on_complete;
        handle = -1; rate = 0. }
    in
    after t latency (fun t -> activate_flow t flow)
  end

let refresh_rates t =
  Inc.refresh t.solver;
  for i = 0 to t.n_flows - 1 do
    let f = t.flows.(i) in
    f.rate <- Inc.rate t.solver f.handle
  done;
  t.rates_valid <- true

(* A transferred remainder below this is rounding noise (sub-microbyte). *)
let eps_bytes = 1e-6

let next_flow_completion t =
  let acc = ref infinity in
  for i = 0 to t.n_flows - 1 do
    let f = t.flows.(i) in
    if f.rate > 0. then acc := Float.min !acc (t.time +. (f.remaining /. f.rate))
  done;
  !acc

(* Advance the clock to [date], draining flow payloads at current rates. A
   flow also counts as finished when its residue would drain within a
   nanosecond: otherwise a residue smaller than the clock's ulp could stall
   the simulation (time would stop advancing). *)
let advance_to t date =
  let dt = date -. t.time in
  if dt > 0. then
    for i = 0 to t.n_flows - 1 do
      let f = t.flows.(i) in
      f.remaining <- f.remaining -. (f.rate *. dt)
    done;
  t.time <- date;
  (* Compact survivors in place; finished flows accumulate newest-first
     (their completion callbacks historically ran in reverse activation
     order, and schedule replay observes that order). *)
  let finished = ref [] in
  let live = ref 0 in
  for i = 0 to t.n_flows - 1 do
    let f = t.flows.(i) in
    if f.remaining <= eps_bytes +. (f.rate *. 1e-9) then
      finished := f :: !finished
    else begin
      t.flows.(!live) <- f;
      incr live
    end
  done;
  match !finished with
  | [] -> ()
  | fin ->
      for i = !live to t.n_flows - 1 do
        t.flows.(i) <- dummy_flow
      done;
      t.n_flows <- !live;
      t.rates_valid <- false;
      List.iter
        (fun f ->
          Inc.remove t.solver f.handle;
          f.handle <- -1;
          t.events_processed <- t.events_processed + 1)
        fin;
      List.iter (fun f -> f.on_complete t) fin

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
  if date < t.time then invalid_arg "Engine.run_until: date in the past";
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
