(** Domain-safety checks: the R-series rules.

    - [R001] — shared mutable state ([ref], [Hashtbl]/[Buffer]/[Queue]/
      [Stack] creations, [Array.make]/[init], [Bytes]) reachable from a
      closure handed to [Domain.spawn] or [Pool.map*]. The capture set is
      the closure's free variables, expanded through let-bound functions
      defined in the same file (so [Domain.spawn (worker (s + 1))] sees
      what [worker] captures). [Atomic.make]/[Mutex.create] bindings are
      sanctioned; a closure that takes a mutex itself is presumed
      disciplined (R002 audits its unlock path).
    - [R002] — a [Mutex.lock] not immediately followed by
      [Fun.protect ~finally:(... Mutex.unlock ...)] in the same sequence:
      any exception between lock and unlock leaves the mutex held.

    Both checks are per-file and syntactic; like [Rules.check_structure],
    scope filtering and suppression happen in the engine. *)

val check_structure : Rules.finding -> Parsetree.structure -> unit
(** Walk one parsed file and report every R001/R002 violation through
    the callback. *)
