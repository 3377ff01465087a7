module Metrics = Rats_obs.Metrics
module Trace = Rats_obs.Trace
module Instr = Rats_obs.Instr

type stats = {
  failed : int Atomic.t;
  retried : int Atomic.t;
  resumed : int Atomic.t;
}

type t = {
  jobs : int;
  cache : Cache.t option;
  fault : Fault.t option;
  retry : Retry.policy;
  strict : bool;
  journal : Journal.t option;
  stats : stats;
}

exception Task_failed of string * Retry.failure

let () =
  Printexc.register_printer (function
    | Task_failed (name, failure) ->
        Some
          (Printf.sprintf "Exec.Task_failed(%s: %s)" name
             (Retry.failure_to_string failure))
    | _ -> None)

let fresh_stats () =
  { failed = Atomic.make 0; retried = Atomic.make 0; resumed = Atomic.make 0 }

let make ?jobs ?cache ?fault ?(retry = Retry.default) ?(strict = false)
    ?journal () =
  {
    jobs = (match jobs with Some j -> max 1 j | None -> Pool.default_jobs ());
    cache;
    fault;
    retry;
    strict;
    journal;
    stats = fresh_stats ();
  }

let of_env ?jobs ?retry ?strict ?journal () =
  let fault = Fault.of_env () in
  make ?jobs ?cache:(Cache.of_env ?fault ()) ?fault ?retry ?strict ?journal ()

type source = Computed | From_cache | From_journal

type 'a outcome = {
  source : source;
  attempts : int;
  value : ('a, Retry.failure) result;
}

let site = "worker"

let run t ~name f =
  let task ~attempt =
    (* The attempt number is part of the fault key: an injected crash is a
       fresh draw on retry, so retry-until-success is testable. *)
    let key = Printf.sprintf "%s#%d" name attempt in
    Fault.crash_point t.fault ~site ~key;
    Fault.delay_point t.fault ~site ~key;
    f ()
  in
  let Retry.{ value; attempts } = Retry.run ~policy:t.retry ~name task in
  if attempts > 1 then begin
    ignore (Atomic.fetch_and_add t.stats.retried (attempts - 1));
    Metrics.add Instr.exec_retried (attempts - 1);
    Trace.instant ~cat:"fault"
      ~args:(fun () ->
        [ ("task", name); ("attempts", string_of_int attempts) ])
      "exec:retry"
  end;
  (match value with
  | Error failure ->
      Atomic.incr t.stats.failed;
      Metrics.incr Instr.exec_failed;
      let kind =
        match failure with
        | Retry.Timed_out _ ->
            Metrics.incr Instr.exec_timeouts;
            "exec:timeout"
        | Retry.Crashed _ -> "exec:failed"
      in
      Trace.instant ~cat:"fault"
        ~args:(fun () ->
          [ ("task", name); ("failure", Retry.failure_to_string failure) ])
        kind;
      if t.strict then raise (Task_failed (name, failure))
  | Ok _ -> ());
  { source = Computed; attempts; value }

let lookup t ~name ~key ~decode =
  let journaled payload v =
    (match t.journal with
    | Some j when Journal.resumes j key ->
        (* Only a record of the interrupted run counts as resumed; one this
           run appended is served without being counted. *)
        Atomic.incr t.stats.resumed;
        Metrics.incr Instr.exec_resumed;
        Trace.instant ~cat:"fault"
          ~args:(fun () -> [ ("task", name) ])
          "exec:resumed"
    | _ -> ());
    (* Promote into the cache so the next run hits the fast path. *)
    Option.iter (fun c -> Cache.store c key payload) t.cache;
    (v, From_journal)
  in
  let cached c = Option.bind (Cache.find c key) decode in
  match Option.bind t.cache cached with
  | Some v -> Some (v, From_cache)
  | None -> (
      match Option.bind t.journal (fun j -> Journal.find j key) with
      | Some payload -> Option.map (journaled payload) (decode payload)
      | None -> None)

let store t ~key payload =
  Option.iter (fun c -> Cache.store c key payload) t.cache;
  Option.iter (fun j -> Journal.append j ~key payload) t.journal

let keyed t ~name ~key ~encode ~decode f =
  match lookup t ~name ~key ~decode with
  | Some (v, source) -> { source; attempts = 1; value = Ok v }
  | None ->
      let outcome = run t ~name f in
      Result.iter (fun v -> store t ~key (encode v)) outcome.value;
      outcome

let map_outcome t ~run l =
  if t.strict then
    (* [run] is built from {!run}/{!keyed}, which raise [Task_failed] in
       strict mode; the pool stops claiming work and re-raises here. *)
    Pool.map ~jobs:t.jobs run l
  else
    List.map
      (function
        | Ok o -> o
        | Error (e : Pool.task_error) ->
            (* An exception that escaped the retry wrapper entirely — a bug
               rather than a task fault, but still one slot, not a lost
               sweep. *)
            Atomic.incr t.stats.failed;
            Metrics.incr Instr.exec_failed;
            {
              source = Computed;
              attempts = 1;
              value =
                Error
                  (Retry.Crashed
                     {
                       message = Printexc.to_string e.Pool.exn;
                       backtrace = e.Pool.backtrace;
                       attempts = 1;
                     });
            })
      (Pool.map_result ~jobs:t.jobs run l)
