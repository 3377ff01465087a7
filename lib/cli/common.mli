(** Command-line terms shared by [bench/main.exe] and the [bin/] tools, so
    one flag has one name, default and range check everywhere. *)

open Cmdliner

val cluster_term : Rats_platform.Cluster.t Term.t
(** [--cluster NAME]: chti, grillon or grelon (Table II presets); default
    grillon. *)

val config_term : Rats_daggen.Suite.config Term.t
(** One generated application: [--kind], [--tasks], [--width],
    [--density], [--regularity], [--jump], [--fft-k] and [--sample]. A
    shape {!Rats_daggen.Shape.make} refuses (a [--width] outside (0,1] or
    NaN, say) is a usage error, exit 124. *)

(** {2 RATS strategy parameters (paper §III)} *)

val mindelta_term : float Term.t
val maxdelta_term : float Term.t
val minrho_term : float Term.t
val packing_term : bool Term.t

(** {2 Engine and admission ([ratsd], [workload])} *)

val queue_limit_term : int Term.t
(** [--queue-limit N]: reject arrivals once N jobs wait; default 256. An
    N below 1 is a usage error. *)

val tenant_limit_term : int Term.t
(** [--tenant-limit N]: reject a tenant with N jobs queued or running;
    default 64. An N below 1 is a usage error. *)

val deadline_term : float option Term.t
(** [--deadline S]: expire a job still queued S simulated seconds after
    arrival; the default 0 (or any S <= 0) is [None], no expiry. *)

val engine_jobs_term : int option Term.t
(** [--jobs N]: the engine's schedule-computation pool size; the default
    0 is [None], the pool default. *)

(** {2 The ratsd socket and load trace ([ratsd], [rats_client])} *)

val socket_term : string Term.t
(** [--socket PATH] (or [RATS_SOCKET]): the Unix-domain socket ratsd
    listens on; default [/tmp/ratsd.sock]. *)

val profile_term : string Term.t
(** [--profile SPEC]: the load trace [ratsd --selftest] plays and
    [rats_client --op load] submits, in the profile grammar of
    {!Rats_workload.Profile.of_string}; default ["poisson"]. Each binary
    parses it against its [--cluster] before anything connects or runs. *)

(** {2 Tracing and metrics export} *)

type obs = { trace : string option; metrics : string option }
(** Where the run's Chrome trace and metrics snapshot go; [None] writes
    nothing and keeps the nil-sink path active. *)

val obs_term : obs Term.t
(** [--trace FILE] and [--metrics FILE], defaulting to [RATS_TRACE] and
    [RATS_METRICS]; an empty value disables the file. *)

val start_obs : obs -> unit
(** Call once per process, before the work. Installs a {!Rats_obs.Trace}
    tracer iff a trace is requested, and registers a single [at_exit] hook
    that writes both files, so they are flushed once, whether the run
    returns, calls [exit] or dies of an uncaught exception. Parent
    directories are created; the metrics format follows the extension:
    [.json] → JSON snapshot, anything else → Prometheus text. *)
