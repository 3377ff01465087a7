module Procset = Rats_util.Procset
module Dag = Rats_dag.Dag
module Engine = Rats_sim.Engine
module Redistribution = Rats_redist.Redistribution

type span = {
  src_task : int;
  dst_task : int;
  span_start : float;
  span_finish : float;
  span_bytes : float;  (* remote bytes of the redistribution *)
}

type result = {
  makespan : float;
  starts : float array;
  finishes : float array;
  remote_bytes : float;
  local_bytes : float;
  redistributions : int;
  avoided : int;
  spans : span list;  (* paid redistributions, chronological *)
}

(* Work-conserving replay: a task starts as soon as all its input
   redistributions have arrived and every processor of its set is free —
   processors are acquired atomically, so no partial holds and no deadlock.
   Assigned tasks are considered in the mapper's estimated order, but a task
   whose data is late never blocks a later-ready one (no head-of-line
   blocking), matching how a mixed-parallel runtime executes a schedule.
   Processor indices are the schedule's (share-local) ones; only flow
   endpoints are translated through [grant] onto the engine's platform. *)
type sim_state = {
  schedule : Schedule.t;
  work_conserving : bool;
  optimize_placement : bool;
  grant : int array;  (* local processor q runs on global grant.(q) *)
  start_time : float;
  queues : int array array;  (* per processor: assigned tasks, mapper order *)
  busy : bool array;  (* per processor *)
  pending_inputs : int array;  (* per task: input redistributions in flight *)
  started : bool array;
  finished : bool array;
  starts : float array;
  finishes : float array;
  mutable n_finished : int;
  mutable remote_bytes : float;
  mutable local_bytes : float;
  mutable redistributions : int;
  mutable avoided : int;
  mutable rev_spans : span list;
  on_task_finish : int -> unit;
  on_redistribution : span -> unit;
  on_complete : result -> unit;
}

let build_queues schedule =
  let problem = Schedule.problem schedule in
  let p = Problem.n_procs problem in
  let per_proc = Array.make p [] in
  Array.iter
    (fun e ->
      Procset.iter
        (fun q -> per_proc.(q) <- e.Schedule.task :: per_proc.(q))
        e.Schedule.procs)
    (Schedule.entries schedule);
  Array.map
    (fun tasks ->
      let arr = Array.of_list tasks in
      let key t =
        let e = Schedule.entry schedule t in
        (e.Schedule.est_start, e.Schedule.seq)
      in
      Array.sort (fun a b -> compare (key a) (key b)) arr;
      arr)
    per_proc

let procs_free st procs =
  Procset.fold (fun q ok -> ok && not st.busy.(q)) procs true

(* In strict (non-work-conserving) mode a task may only start when it is the
   first unfinished task of every processor it is assigned to. *)
let first_unfinished st q =
  let queue = st.queues.(q) in
  let rec go k =
    if k >= Array.length queue then None
    else if st.finished.(queue.(k)) then go (k + 1)
    else Some queue.(k)
  in
  go 0

let strict_eligible st task procs =
  st.work_conserving
  || Procset.fold (fun q ok -> ok && first_unfinished st q = Some task) procs true

let complete st eng =
  Problem.publish_metrics (Schedule.problem st.schedule);
  st.on_complete
    {
      makespan = Engine.now eng -. st.start_time;
      starts = st.starts;
      finishes = st.finishes;
      remote_bytes = st.remote_bytes;
      local_bytes = st.local_bytes;
      redistributions = st.redistributions;
      avoided = st.avoided;
      spans =
        List.sort
          (fun a b ->
            compare (a.span_start, a.dst_task) (b.span_start, b.dst_task))
          st.rev_spans;
    }

let rec try_start st eng task =
  let e = Schedule.entry st.schedule task in
  if
    (not st.started.(task))
    && st.pending_inputs.(task) = 0
    && procs_free st e.Schedule.procs
    && strict_eligible st task e.Schedule.procs
  then begin
    st.started.(task) <- true;
    st.starts.(task) <- Engine.now eng;
    Procset.iter (fun q -> st.busy.(q) <- true) e.Schedule.procs;
    let problem = Schedule.problem st.schedule in
    let duration =
      Problem.task_time problem task ~procs:(Procset.size e.Schedule.procs)
    in
    Engine.after eng duration (fun eng -> on_finish st eng task)
  end

and try_start_on_proc st eng q =
  if st.work_conserving then begin
    (* First eligible assigned task of the processor, in mapper order. *)
    let queue = st.queues.(q) in
    let rec go k =
      if k < Array.length queue && not st.busy.(q) then begin
        let t = queue.(k) in
        if not st.started.(t) then try_start st eng t;
        go (k + 1)
      end
    in
    go 0
  end
  else
    match first_unfinished st q with
    | Some t when not st.started.(t) -> try_start st eng t
    | _ -> ()

and on_finish st eng task =
  st.on_task_finish task;
  st.finishes.(task) <- Engine.now eng;
  st.finished.(task) <- true;
  st.n_finished <- st.n_finished + 1;
  let e = Schedule.entry st.schedule task in
  Procset.iter (fun q -> st.busy.(q) <- false) e.Schedule.procs;
  (* Launch the redistribution toward every successor. *)
  let problem = Schedule.problem st.schedule in
  let dag = Problem.dag problem in
  List.iter
    (fun (succ, bytes) ->
      let se = Schedule.entry st.schedule succ in
      let arrival eng =
        st.pending_inputs.(succ) <- st.pending_inputs.(succ) - 1;
        try_start st eng succ
      in
      if bytes <= 0. then Engine.at eng (Engine.now eng) arrival
      else begin
        let plan =
          Redistribution.plan ~optimize_placement:st.optimize_placement
            ~sender:e.Schedule.procs ~receiver:se.Schedule.procs ~bytes ()
        in
        let remote = List.filter (fun t -> t.Redistribution.src <> t.dst) plan in
        st.remote_bytes <- st.remote_bytes +. Redistribution.remote_bytes plan;
        st.local_bytes <- st.local_bytes +. Redistribution.local_bytes plan;
        if remote = [] then begin
          st.avoided <- st.avoided + 1;
          Engine.at eng (Engine.now eng) arrival
        end
        else begin
          st.redistributions <- st.redistributions + 1;
          let span_start = Engine.now eng in
          let span_bytes = Redistribution.remote_bytes plan in
          let outstanding = ref (List.length remote) in
          List.iter
            (fun t ->
              Engine.start_flow eng ~src:st.grant.(t.Redistribution.src)
                ~dst:st.grant.(t.Redistribution.dst)
                ~bytes:t.Redistribution.bytes
                ~on_complete:(fun eng ->
                  decr outstanding;
                  if !outstanding = 0 then begin
                    let span =
                      {
                        src_task = task;
                        dst_task = succ;
                        span_start;
                        span_finish = Engine.now eng;
                        span_bytes;
                      }
                    in
                    st.rev_spans <- span :: st.rev_spans;
                    st.on_redistribution span;
                    arrival eng
                  end))
            remote
        end
      end)
    (Dag.succs dag task);
  (* Freed processors may admit their next eligible task. *)
  Procset.iter (fun q -> try_start_on_proc st eng q) e.Schedule.procs;
  if st.n_finished = Array.length st.finished then complete st eng

let launch eng ~grant ?(work_conserving = true) ?(optimize_placement = true)
    ?(on_task_finish = ignore) ?(on_redistribution = ignore) ~on_complete
    schedule =
  let problem = Schedule.problem schedule in
  let k = Problem.n_procs problem in
  if Procset.size grant <> k then
    invalid_arg
      (Printf.sprintf
         "Evaluate.start: schedule wants %d processors, grant has %d" k
         (Procset.size grant));
  let n = Schedule.n_tasks schedule in
  let dag = Problem.dag problem in
  let st =
    {
      schedule;
      work_conserving;
      optimize_placement;
      grant = Procset.to_array grant;
      start_time = Engine.now eng;
      queues = build_queues schedule;
      busy = Array.make k false;
      pending_inputs = Array.init n (fun i -> List.length (Dag.preds dag i));
      started = Array.make n false;
      finished = Array.make n false;
      starts = Array.make n nan;
      finishes = Array.make n nan;
      n_finished = 0;
      remote_bytes = 0.;
      local_bytes = 0.;
      redistributions = 0;
      avoided = 0;
      rev_spans = [];
      on_task_finish;
      on_redistribution;
      on_complete;
    }
  in
  (* Kick through the event queue (not inline) so replays started at the
     same instant on a shared engine begin in call order. *)
  Engine.at eng (Engine.now eng) (fun eng ->
      for q = 0 to k - 1 do
        try_start_on_proc st eng q
      done);
  st

let start eng ~grant ?work_conserving ?optimize_placement ?on_task_finish
    ?on_redistribution ~on_complete schedule =
  ignore
    (launch eng ~grant ?work_conserving ?optimize_placement ?on_task_finish
       ?on_redistribution ~on_complete schedule
      : sim_state)

let run ?work_conserving ?optimize_placement schedule =
  let problem = Schedule.problem schedule in
  let eng = Engine.create (Problem.cluster problem) in
  let result = ref None in
  let st =
    launch eng
      ~grant:(Procset.range 0 (Problem.n_procs problem))
      ?work_conserving ?optimize_placement
      ~on_complete:(fun r -> result := Some r)
      schedule
  in
  ignore (Engine.run eng : float);
  Array.iteri
    (fun i f ->
      if Float.is_nan f then
        failwith (Printf.sprintf "Evaluate.run: task %d never finished" i))
    st.finishes;
  Option.get !result
