(** [ratsd]'s per-connection protocol state machine, without sockets.

    A session answers each connection's frames against one {!Engine} and
    streams its events to watchers, under the back-pressure rules of
    docs/SERVER.md "Failure semantics": a watcher whose buffered events
    pass [client_buffer] bytes is evicted; past [backlog_limit] buffered
    bytes in total the session degrades (events shed, new [watch]/[log]
    refused) until the backlog falls below half; a reply larger than
    {!Protocol.max_frame} becomes an [Err] naming its size, such an event
    is shed. The [server.read] and [server.client] fault sites are keyed
    ["cid:reads"] and ["cid:msgs"]; clients are numbered from 0 in
    connection order. The socket loop gives each connection a
    non-blocking {!writer}; tests back it with a buffer. *)

type writer = string -> int -> int -> [ `Wrote of int | `Again | `Closed ]
(** [w s off len] writes a prefix of those bytes without blocking.
    [`Closed] means the peer is gone. *)

type t
type client

val create :
  ?fault:Rats_runtime.Fault.t ->
  ?journal:Rats_runtime.Journal.t ->
  client_buffer:int ->
  backlog_limit:int ->
  Engine.t ->
  t
(** Subscribes to the engine's events; [journal] only feeds [health]. *)

val connect : t -> writer -> client

val receive : t -> client -> string -> unit
(** One chunk read off the connection: answers every frame it completes.
    A framing error is answered with [Err] and drops the client. *)

val flush : t -> client -> unit
(** The connection is writable: hands the writer what it takes. *)

val check_backlog : t -> unit
(** Enters or leaves degraded mode; call once per I/O round, after
    flushing. *)

val hang_up : t -> client -> unit
(** The peer closed or reset the connection. *)

val alive : client -> bool

val pending : client -> int
(** Bytes buffered; 0 once dropped. *)

val stopped : t -> bool
(** A [shutdown] has been answered. *)
