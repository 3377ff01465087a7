type error = { message : string; backtrace : string; attempts : int }

type failure =
  | Crashed of error
  | Timed_out of { timeout_s : float; attempts : int }

let failure_to_string = function
  | Crashed e ->
      Printf.sprintf "failed after %d attempt%s: %s" e.attempts
        (if e.attempts = 1 then "" else "s")
        e.message
  | Timed_out { timeout_s; attempts } ->
      Printf.sprintf "timed out (%.3gs) after %d attempt%s" timeout_s attempts
        (if attempts = 1 then "" else "s")

type policy = {
  retries : int;
  backoff_s : float;
  jitter : float;
  timeout_s : float option;
}

let default = { retries = 0; backoff_s = 0.05; jitter = 0.5; timeout_s = None }

type 'a outcome = { value : ('a, failure) result; attempts : int }

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Deterministic jitter in [0,1): hashed, not drawn, so retry timing never
   depends on a shared RNG touched from several domains. *)
let jitter_unit ~name ~attempt =
  float_of_int (Hashtbl.hash (name, attempt, "jitter") land 0xFFFF) /. 65536.

(* One attempt under a deadline: the task runs on a helper thread while the
   caller polls the monotonic clock. An overdue thread is abandoned, not
   joined — there is no way to kill it in-process — so its eventual result
   is discarded via the [Atomic.t] it alone writes. *)
let attempt_with_timeout ~timeout_s f =
  let slot = Atomic.make None in
  let runner = Thread.create (fun () -> Atomic.set slot (Some (try Ok (f ()) with e when Fatal.recoverable e -> Error (e, Printexc.get_raw_backtrace ())))) () in
  let deadline = now_s () +. timeout_s in
  let rec wait () =
    match Atomic.get slot with
    | Some r ->
        Thread.join runner;
        `Done r
    | None ->
        if now_s () >= deadline then `Timed_out
        else begin
          Thread.delay 0.002;
          wait ()
        end
  in
  wait ()

let run ?(policy = default) ~name f =
  let rec go attempt =
    let result =
      match policy.timeout_s with
      | None -> (
          match f ~attempt with
          | v -> `Done (Ok v)
          | exception e when Fatal.recoverable e ->
              `Done (Error (e, Printexc.get_raw_backtrace ())))
      | Some timeout_s -> attempt_with_timeout ~timeout_s (fun () -> f ~attempt)
    in
    match result with
    | `Done (Ok v) -> { value = Ok v; attempts = attempt }
    | (`Done (Error _) | `Timed_out) as failed -> (
        if attempt <= policy.retries then begin
          let scale = 1. +. (policy.jitter *. jitter_unit ~name ~attempt) in
          let pause =
            policy.backoff_s *. (2. ** float_of_int (attempt - 1)) *. scale
          in
          if pause > 0. then Unix.sleepf pause;
          go (attempt + 1)
        end
        else
          let value =
            match failed with
            | `Timed_out ->
                Error
                  (Timed_out
                     {
                       timeout_s = Option.value policy.timeout_s ~default:0.;
                       attempts = attempt;
                     })
            | `Done (Error (e, bt)) ->
                Error
                  (Crashed
                     {
                       message = Printexc.to_string e;
                       backtrace = Printexc.raw_backtrace_to_string bt;
                       attempts = attempt;
                     })
            | `Done (Ok _) -> assert false
          in
          { value; attempts = attempt })
  in
  go 1
