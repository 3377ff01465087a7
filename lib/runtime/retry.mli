(** Bounded retries with exponential backoff, and per-task timeouts.

    A raising task is retried up to [retries] extra times with exponential
    backoff and deterministic jitter (hashed from the task name and attempt
    — no shared RNG, so parallel sweeps stay reproducible). When a
    [timeout_s] is set, each attempt runs on a helper thread and is
    abandoned once the monotonic clock passes the deadline, turning a hung
    configuration into a {!Timed_out} failure instead of a hung sweep; the
    abandoned thread keeps running until its computation finishes (an
    in-process runtime cannot kill it) but the sweep no longer waits for it.
    With [timeout_s = None] the task runs inline on the calling domain —
    no thread, no overhead, behavior identical to a plain call. *)

type error = {
  message : string;  (** [Printexc.to_string] of the last exception. *)
  backtrace : string;
  attempts : int;  (** Total attempts made, [>= 1]. *)
}

type failure =
  | Crashed of error
  | Timed_out of { timeout_s : float; attempts : int }

val failure_to_string : failure -> string

type policy = {
  retries : int;  (** Extra attempts after the first; 0 = fail fast. *)
  backoff_s : float;
      (** Base backoff; attempt [k] waits [backoff_s * 2^(k-1)], scaled by
          jitter. *)
  jitter : float;  (** Multiplicative jitter amplitude in [0,1]. *)
  timeout_s : float option;  (** Per-attempt deadline; [None] = no limit. *)
}

val default : policy
(** No retries, no timeout, 50 ms base backoff with 50 % jitter — the
    happy-path policy; {!run} with it is an ordinary call. *)

type 'a outcome = { value : ('a, failure) result; attempts : int }

val run : ?policy:policy -> name:string -> (attempt:int -> 'a) -> 'a outcome
(** [run ~policy ~name f] calls [f ~attempt:1], retrying on exception or
    timeout. [name] seeds the backoff jitter and labels failures. The
    attempt number lets callers vary fault-injection keys so a retried task
    is a fresh draw. *)
