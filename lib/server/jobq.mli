(** The waiting queue of admitted jobs.

    Jobs are held in arrival order. Dispatch ({!pop}) scans the queue
    front-to-back and returns the first job that (a) fits the current
    residual platform and (b) belongs to a tenant none of whose earlier
    jobs are still waiting — i.e. {e first-fit backfill across tenants,
    strict FIFO within a tenant}. A small job from tenant B may overtake a
    large blocked job from tenant A (keeping utilization up), but B's own
    jobs never reorder. Entirely deterministic: the outcome is a function
    of queue contents and the [fits] predicate. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> tenant:string -> 'a -> unit
(** Appends at the tail. *)

val depth : 'a t -> int

val tenant_depth : 'a t -> string -> int
(** Waiting jobs of one tenant. *)

val pop : 'a t -> fits:('a -> bool) -> 'a option
(** Removes and returns the first eligible job (see above), or [None] when
    no waiting job is eligible. Callers loop — re-evaluating [fits] against
    the shrinking residual platform — until [None]. *)

val remove : 'a t -> f:('a -> bool) -> 'a option
(** Removes and returns the first (oldest) job satisfying [f], preserving
    the order of the rest — deadline expiry uses this to drop a job
    without disturbing the queue. *)
