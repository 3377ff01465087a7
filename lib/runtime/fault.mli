(** Deterministic, seedable fault injection.

    Every recovery path of the runtime ({!Retry} backoff, {!Pool} failure
    capture, {!Cache} quarantine, {!Journal} resume) is only trustworthy if
    it can be exercised on demand, so this module turns the [RATS_FAULT]
    environment variable into injection points the rest of the runtime
    consults. With [RATS_FAULT] unset (the default) every probe is a no-op
    and the happy path is bit-identical to a build without injection.

    Decisions are {e deterministic}: whether a fault fires at a given
    ([site], [key]) pair is a pure function of the seed, the fault kind, the
    site and the key — never of wall-clock time, worker interleaving or a
    shared RNG. The same spec therefore injects the same faults no matter
    how many pool workers run the sweep, which is what makes the recovery
    tests reproducible. Retries pass a fresh key (the attempt number is
    appended), so a crash-prone task can still succeed on a later attempt.

    Spec grammar (comma-separated, spaces ignored):
    {v
    RATS_FAULT="seed=42,crash=0.1,delay=0.02,corrupt=0.2,delay_s=0.1"
    v}
    - [seed=N] — decision seed (default 0).
    - [crash=P] / [delay=P] / [corrupt=P] — global per-kind probabilities in
      [0,1] (default 0).
    - [kind@site=P] — site override, e.g. [crash@worker=0.5] or
      [corrupt@cache.write=1]. Sites used by the runtime: ["worker"] (task
      execution in {!Exec}), ["cache.write"] ({!Cache.store}),
      ["journal.append"] ({!Journal.append}: [Delay] stalls the write,
      [Crash] turns it into an I/O failure that disables the journal).
      Sites used by the service layer (see docs/SERVER.md "Failure
      semantics"): ["server.read"] ([Corrupt] damages a chunk read off a
      client socket), ["server.client"] ([Crash] force-disconnects a
      client mid-session), ["engine.step"] ([Delay] before a dispatch
      batch), ["replay.task"] ([Delay] when a task finishes on the shared
      simulator, through [Rats_core.Evaluate.start]'s [on_task_finish]).
    - [delay_s=S] — duration of one injected delay in seconds
      (default 0.05).
    - [off] (alone) — explicitly disabled, same as unset. *)

type kind = Crash | Delay | Corrupt

type t

exception Injected of string
(** Raised by {!crash_point}; the payload names the site and key. *)

val parse : string -> (t, string) result
(** Parse a spec string; [Error] carries a human-readable reason. *)

val of_env : unit -> t option
(** [RATS_FAULT] parsed, [None] when unset, empty or ["off"]. An invalid
    spec prints the reason on stderr and exits 2 — silently ignoring a typo
    would "pass" every fault test without injecting anything. *)

val spec : t -> string
(** Canonical rendering of the configuration (for logs and reports). *)

val fires : t -> kind -> site:string -> key:string -> bool
(** Pure decision: does this fault fire here? Deterministic in
    (seed, kind, site, key). Callers acting on a positive decision
    directly (rather than through the helpers below) should bump
    [Rats_obs.Instr.fault_injections] themselves — the helpers do it for
    them. *)

val crash_point : t option -> site:string -> key:string -> unit
(** Raise {!Injected} when a [Crash] fires; no-op on [None]. *)

val delay_point : t option -> site:string -> key:string -> unit
(** Sleep for the configured [delay_s] when a [Delay] fires; no-op on
    [None]. *)

val corrupt_payload : t option -> site:string -> key:string -> string -> string
(** Return a damaged copy of the payload (truncated and bit-flipped) when a
    [Corrupt] fires, the payload unchanged otherwise. *)
