(** Content-addressed on-disk result cache.

    Entries are keyed by an MD5 of the inputs that determine a result —
    suite configuration, cluster signature, algorithm parameters — plus
    {!version}, a code-version salt bumped whenever the scheduling or
    simulation semantics change, so stale results can never be replayed
    across a semantic change. Values are opaque strings; callers serialize
    (the experiment layer uses ["%h"] hex floats for bit-exact round-trips).

    Writes are atomic (unique temp file in the cache directory + [rename]),
    so a crashed or concurrent run can never expose a half-written entry.
    Reads are corruption-tolerant: every entry embeds a checksum of its
    payload, and any unreadable, truncated or tampered file is treated as a
    miss and {e quarantined} — moved to [<dir>/quarantine/] for post-mortem
    instead of silently deleted — leaving the slot writable again. All I/O
    errors (unwritable directory, full disk, partial writes) degrade the
    cache to misses; they never fail the run. Hit/miss/quarantine counters
    are atomics — safe to bump from {!Pool} workers.

    A {!Fault} configuration, when given, drives the error paths on demand:
    [corrupt@cache.write] tears payloads behind the checksum's back and
    [crash@cache.write] aborts writes mid-entry with a simulated [ENOSPC] —
    this is how the quarantine and partial-write behavior is tested. *)

type t

val version : string
(** Code-version salt mixed into every {!key}. Bump on any change that
    invalidates previously cached results. *)

val default_dir : string
(** ["bench_results/.cache"]. *)

val create : ?fault:Fault.t -> ?dir:string -> unit -> t
(** Creates [dir] (and its parent) if possible; an uncreatable directory
    degrades every lookup to a miss and every store to a no-op rather than
    raising. *)

val of_env : ?fault:Fault.t -> unit -> t option
(** [None] when [RATS_CACHE] is ["off"] / ["0"]; otherwise a cache in
    [RATS_CACHE_DIR] (default {!default_dir}). *)

val key : string list -> string
(** Stable content hash of the given parts (order-sensitive, injective on
    part lists, salted with {!version}). *)

val find : t -> string -> string option
(** Payload stored under the key, or [None] (counted as a miss) when absent
    or corrupted; corrupted entries are quarantined. *)

val store : t -> string -> string -> unit
(** [store t key payload] atomically persists the entry. I/O errors are
    swallowed (and the temp file removed) — the cache is an accelerator,
    never a correctness dependency. *)

val path : t -> string -> string
(** On-disk location of a key's entry (exposed for tests and tooling). *)

val quarantine_dir : t -> string
(** Where damaged entries are moved ([<dir>/quarantine]). *)

val hits : t -> int

val misses : t -> int

val quarantined : t -> int
(** Damaged entries encountered (and moved aside) so far. *)

val hit_rate : t -> float
(** Hits over lookups, [0.] before the first lookup. *)
