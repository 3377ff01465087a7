(** [ratsd]'s wire protocol: length-prefixed JSON frames over a stream.

    A frame is a 4-byte big-endian payload length followed by that many
    bytes of UTF-8 JSON (one {!Rats_obs.Json.t} document). Length prefixing
    makes framing independent of JSON whitespace and keeps the decoder a
    trivial state machine; payloads are capped at {!max_frame} so a
    corrupt or hostile length cannot make the daemon allocate unboundedly.

    The conversation is strictly client-initiated: each {!client_msg} gets
    at least one {!server_msg} reply; [Watch] additionally subscribes the
    connection to the event stream, after which [Event] frames arrive
    interleaved with later replies (each frame is self-describing, so
    clients demultiplex on the ["re"] tag). See docs/SERVER.md for the
    frame-by-frame specification. *)

type client_msg =
  | Ping
  | Plan of Api.request
      (** Pure submit-DAG → get-schedule: no admission, no queue, no
          simulated execution. Replied to with [Placed]. *)
  | Submit of { at : float option; request : Api.request }
      (** Register an arrival (default: the engine's current simulated
          time). Replied to with [Ack] or [Err]. *)
  | Watch  (** Subscribe this connection to the event stream. *)
  | Drain  (** Run the simulation until every pending job completed. *)
  | Log  (** Full event log so far. *)
  | Stats  (** Engine statistics snapshot. *)
  | Health
      (** Daemon liveness/readiness snapshot ([Healthy]): degraded flag,
          client/backlog/eviction counts. Served even when degraded. *)
  | Shutdown  (** Replied to with [Bye]; the daemon then exits. *)

type server_msg =
  | Pong
  | Ack of { id : int }  (** Submission id. *)
  | Placed of Rats_obs.Json.t  (** An {!Api.response}, as JSON. *)
  | Watching
  | Event of Api.stamped
  | Drained of { end_time : float }
  | Log of Api.stamped list
  | Stats of Rats_obs.Json.t
  | Healthy of Rats_obs.Json.t
      (** Health snapshot, shape documented in docs/SERVER.md. *)
  | Bye
  | Err of string

val client_to_json : client_msg -> Rats_obs.Json.t
val client_of_json : Rats_obs.Json.t -> (client_msg, string) result
val server_to_json : server_msg -> Rats_obs.Json.t
val server_of_json : Rats_obs.Json.t -> (server_msg, string) result

(** {2 Framing} *)

val max_frame : int
(** 16 MiB. *)

val frame : Rats_obs.Json.t -> (string, string) result
(** Length prefix + payload, ready to write. [Error] names the payload
    size and the limit when the payload exceeds {!max_frame}. *)

val to_frame : Rats_obs.Json.t -> string
(** {!frame}, raising [Invalid_argument] on an oversized payload. *)

(** Incremental frame decoder: feed arbitrary byte chunks, pop complete
    documents. Framing or JSON errors are sticky — the stream has lost
    sync, so the connection must be dropped. *)
module Decoder : sig
  type t

  val create : unit -> t

  val feed : t -> bytes -> int -> int -> unit
  (** [feed d buf pos len] appends [len] bytes of [buf] from [pos]. *)

  val next : t -> (Rats_obs.Json.t option, string) result
  (** [Ok None] = incomplete frame (feed more); [Ok (Some doc)] = one
      decoded frame, call again. [Error _] = malformed stream. *)
end
