module J = Rats_obs.Json

type client_msg =
  | Ping
  | Plan of Api.request
  | Submit of { at : float option; request : Api.request }
  | Watch
  | Drain
  | Log
  | Stats
  | Health
  | Shutdown

type server_msg =
  | Pong
  | Ack of { id : int }
  | Placed of J.t
  | Watching
  | Event of Api.stamped
  | Drained of { end_time : float }
  | Log of Api.stamped list
  | Stats of J.t
  | Healthy of J.t
  | Bye
  | Err of string

let tag_of name j =
  match J.member name j with
  | Some (J.Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "%S is not a string" name)
  | None -> Error (Printf.sprintf "missing %S tag" name)

let client_to_json = function
  | Ping -> J.Obj [ ("op", J.Str "ping") ]
  | Plan r -> J.Obj [ ("op", J.Str "plan"); ("req", Api.request_to_json r) ]
  | Submit { at; request } ->
      J.Obj
        (("op", J.Str "submit")
        :: (match at with Some a -> [ ("at", J.Num a) ] | None -> [])
        @ [ ("req", Api.request_to_json request) ])
  | Watch -> J.Obj [ ("op", J.Str "watch") ]
  | Drain -> J.Obj [ ("op", J.Str "drain") ]
  | Log -> J.Obj [ ("op", J.Str "log") ]
  | Stats -> J.Obj [ ("op", J.Str "stats") ]
  | Health -> J.Obj [ ("op", J.Str "health") ]
  | Shutdown -> J.Obj [ ("op", J.Str "shutdown") ]

let client_of_json j =
  match tag_of "op" j with
  | Error _ as e -> e
  | Ok op -> (
      match op with
      | "ping" -> Ok Ping
      | "watch" -> Ok Watch
      | "drain" -> Ok Drain
      | "log" -> Ok Log
      | "stats" -> Ok Stats
      | "health" -> Ok Health
      | "shutdown" -> Ok Shutdown
      | "plan" -> (
          match J.member "req" j with
          | None -> Error "plan: missing \"req\""
          | Some r -> (
              match Api.request_of_json r with
              | Ok r -> Ok (Plan r)
              | Error _ as e -> e))
      | "submit" -> (
          match J.member "req" j with
          | None -> Error "submit: missing \"req\""
          | Some r -> (
              match Api.request_of_json r with
              | Error _ as e -> e
              | Ok request -> (
                  match J.member "at" j with
                  | None -> Ok (Submit { at = None; request })
                  | Some a -> (
                      match J.to_float a with
                      | Some at -> Ok (Submit { at = Some at; request })
                      | None -> Error "submit: \"at\" is not a number"))))
      | op -> Error (Printf.sprintf "unknown op %S" op))

let server_to_json = function
  | Pong -> J.Obj [ ("re", J.Str "pong") ]
  | Ack { id } -> J.Obj [ ("re", J.Str "ack"); ("id", J.Num (float_of_int id)) ]
  | Placed resp -> J.Obj [ ("re", J.Str "placed"); ("resp", resp) ]
  | Watching -> J.Obj [ ("re", J.Str "watching") ]
  | Event ev -> J.Obj [ ("re", J.Str "event"); ("ev", Api.stamped_to_json ev) ]
  | Drained { end_time } ->
      J.Obj [ ("re", J.Str "drained"); ("end", J.Num end_time) ]
  | Log evs ->
      J.Obj
        [
          ("re", J.Str "log");
          ("events", J.Arr (List.map Api.stamped_to_json evs));
        ]
  | Stats s -> J.Obj [ ("re", J.Str "stats"); ("stats", s) ]
  | Healthy h -> J.Obj [ ("re", J.Str "health"); ("health", h) ]
  | Bye -> J.Obj [ ("re", J.Str "bye") ]
  | Err msg -> J.Obj [ ("re", J.Str "error"); ("msg", J.Str msg) ]

let server_of_json j =
  match tag_of "re" j with
  | Error _ as e -> e
  | Ok re -> (
      match re with
      | "pong" -> Ok Pong
      | "watching" -> Ok Watching
      | "bye" -> Ok Bye
      | "ack" -> (
          match Option.bind (J.member "id" j) J.to_int with
          | Some id -> Ok (Ack { id })
          | None -> Error "ack: missing integer \"id\"")
      | "placed" -> (
          match J.member "resp" j with
          | Some r -> Ok (Placed r)
          | None -> Error "placed: missing \"resp\"")
      | "event" -> (
          match J.member "ev" j with
          | None -> Error "event: missing \"ev\""
          | Some e -> (
              match Api.stamped_of_json e with
              | Ok ev -> Ok (Event ev)
              | Error _ as e -> e))
      | "drained" -> (
          match Option.bind (J.member "end" j) J.to_float with
          | Some end_time -> Ok (Drained { end_time })
          | None -> Error "drained: missing number \"end\"")
      | "log" -> (
          match Option.bind (J.member "events" j) J.to_list with
          | None -> Error "log: missing \"events\" array"
          | Some l ->
              let rec go acc = function
                | [] -> Ok (Log (List.rev acc))
                | e :: rest -> (
                    match Api.stamped_of_json e with
                    | Ok ev -> go (ev :: acc) rest
                    | Error _ as e -> e)
              in
              go [] l)
      | "stats" -> (
          match J.member "stats" j with
          | Some s -> Ok (Stats s)
          | None -> Error "stats: missing \"stats\"")
      | "health" -> (
          match J.member "health" j with
          | Some h -> Ok (Healthy h)
          | None -> Error "health: missing \"health\"")
      | "error" -> (
          match Option.bind (J.member "msg" j) J.to_str with
          | Some msg -> Ok (Err msg)
          | None -> Error "error: missing string \"msg\"")
      | re -> Error (Printf.sprintf "unknown reply %S" re))

(* --- framing ------------------------------------------------------------ *)

let max_frame = 16 * 1024 * 1024

let frame doc =
  let payload = J.to_string doc in
  let n = String.length payload in
  if n > max_frame then
    Error
      (Printf.sprintf "%d-byte payload exceeds the %d MiB frame limit" n
         (max_frame lsr 20))
  else
    let b = Bytes.create (4 + n) in
    Bytes.set_int32_be b 0 (Int32.of_int n);
    Bytes.blit_string payload 0 b 4 n;
    Ok (Bytes.unsafe_to_string b)

let to_frame doc =
  match frame doc with
  | Ok f -> f
  | Error e -> invalid_arg ("Protocol.to_frame: " ^ e)

module Decoder = struct
  type t = {
    mutable buf : Bytes.t;
    mutable len : int;  (* bytes of [buf] filled *)
    mutable pos : int;  (* bytes of [buf] already consumed *)
    mutable failed : string option;
  }

  let create () = { buf = Bytes.create 4096; len = 0; pos = 0; failed = None }

  let available t = t.len - t.pos

  let feed t src pos len =
    if len < 0 || pos < 0 || pos + len > Bytes.length src then
      invalid_arg "Decoder.feed";
    (* Slide consumed bytes out, then grow if needed. *)
    if t.pos > 0 then begin
      Bytes.blit t.buf t.pos t.buf 0 (available t);
      t.len <- available t;
      t.pos <- 0
    end;
    if t.len + len > Bytes.length t.buf then begin
      let cap = ref (max 4096 (2 * Bytes.length t.buf)) in
      while t.len + len > !cap do
        cap := 2 * !cap
      done;
      let b = Bytes.create !cap in
      Bytes.blit t.buf 0 b 0 t.len;
      t.buf <- b
    end;
    Bytes.blit src pos t.buf t.len len;
    t.len <- t.len + len

  let next t =
    match t.failed with
    | Some e -> Error e
    | None ->
        if available t < 4 then Ok None
        else
          let n = Int32.to_int (Bytes.get_int32_be t.buf t.pos) in
          if n < 0 || n > max_frame then begin
            let e = Printf.sprintf "frame length %d out of range" n in
            t.failed <- Some e;
            Error e
          end
          else if available t < 4 + n then Ok None
          else begin
            let payload = Bytes.sub_string t.buf (t.pos + 4) n in
            t.pos <- t.pos + 4 + n;
            match J.parse payload with
            | Ok doc -> Ok (Some doc)
            | Error e ->
                let e = "bad frame payload: " ^ e in
                t.failed <- Some e;
                Error e
          end
end
