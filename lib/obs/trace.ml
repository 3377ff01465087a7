type clock = unit -> float

let default_clock () = Int64.to_float (Monotonic_clock.now ()) /. 1e3

type event = {
  name : string;
  cat : string;
  phase : [ `Span | `Instant ];
  ts : float;
  dur : float;
  tid : int;
  args : (string * string) list;
}

(* Each domain appends to its own buffer; only the registration of a fresh
   buffer (once per domain per tracer) takes the mutex, so recording itself
   never contends. Buffers of finished domains stay registered — their
   events survive until the flush. *)
type buffer = { mutable rev_events : event list }

type t = {
  clock : clock;
  origin : float;
  mutex : Mutex.t;
  mutable buffers : buffer list;
  mutable key : buffer Domain.DLS.key option;
}

let create ?(clock = default_clock) () =
  let t =
    { clock; origin = clock (); mutex = Mutex.create (); buffers = []; key = None }
  in
  let key =
    Domain.DLS.new_key (fun () ->
        let b = { rev_events = [] } in
        Mutex.lock t.mutex;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.mutex)
          (fun () -> t.buffers <- b :: t.buffers);
        b)
  in
  t.key <- Some key;
  t

let buffer t =
  match t.key with
  | Some key -> Domain.DLS.get key
  | None -> assert false (* only reachable during [create] itself *)

let record t ev =
  let b = buffer t in
  b.rev_events <- ev :: b.rev_events

let tid () = (Domain.self () :> int)

let eval_args = function None -> [] | Some f -> f ()

let span_on t ?(cat = "app") ?args name f =
  let t0 = t.clock () -. t.origin in
  let finish () =
    let t1 = t.clock () -. t.origin in
    record t
      {
        name;
        cat;
        phase = `Span;
        ts = t0;
        dur = Float.max 0. (t1 -. t0);
        tid = tid ();
        args = eval_args args;
      }
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let instant_on t ?(cat = "app") ?args name =
  record t
    {
      name;
      cat;
      phase = `Instant;
      ts = t.clock () -. t.origin;
      dur = 0.;
      tid = tid ();
      args = eval_args args;
    }

(* --- process-global tracer ---------------------------------------------- *)

let current : t option Atomic.t = Atomic.make None

let install t = Atomic.set current (Some t)
let uninstall () = Atomic.set current None
let installed () = Atomic.get current
let is_enabled () = Atomic.get current <> None

let span ?cat ?args name f =
  match Atomic.get current with
  | None -> f ()
  | Some t -> span_on t ?cat ?args name f

let instant ?cat ?args name =
  match Atomic.get current with
  | None -> ()
  | Some t -> instant_on t ?cat ?args name

(* --- flushing ----------------------------------------------------------- *)

let events t =
  Mutex.lock t.mutex;
  let buffers =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mutex)
      (fun () -> t.buffers)
  in
  let all = List.concat_map (fun b -> b.rev_events) buffers in
  (* Ties broken longest-first so an enclosing span sorts before the
     children recorded at the same timestamp (fake clocks produce these). *)
  List.sort
    (fun a b ->
      match compare a.ts b.ts with 0 -> compare b.dur a.dur | c -> c)
    all

let json_of_event ev =
  let base =
    [
      ("name", Json.Str ev.name);
      ("cat", Json.Str ev.cat);
      ("pid", Json.Num 1.);
      ("tid", Json.Num (float_of_int ev.tid));
      ("ts", Json.Num ev.ts);
    ]
  in
  let phase =
    match ev.phase with
    | `Span -> [ ("ph", Json.Str "X"); ("dur", Json.Num ev.dur) ]
    | `Instant -> [ ("ph", Json.Str "i"); ("s", Json.Str "t") ]
  in
  let args =
    match ev.args with
    | [] -> []
    | l -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) l)) ]
  in
  Json.Obj (base @ phase @ args)

let to_chrome_json t =
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.Arr (List.map json_of_event (events t)));
         ("displayTimeUnit", Json.Str "ms");
       ])

let write_chrome t path = File.write_atomic path (to_chrome_json t)

(* --- parse-back ---------------------------------------------------------- *)

let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt

let ( let* ) = Result.bind

let str_member name json = Option.bind (Json.member name json) Json.to_str
let num_member name json = Option.bind (Json.member name json) Json.to_float

(* One trace-event object back into an {!event}; everything
   [json_of_event] writes must round-trip. *)
let event_of_json i json =
  let* name =
    match str_member "name" json with
    | Some n -> Ok n
    | None -> fail "event %d: missing \"name\"" i
  in
  let err field = fail "event %d (%s): missing %s" i name field in
  let* ts =
    match num_member "ts" json with Some t -> Ok t | None -> err "\"ts\""
  in
  let* tid =
    match num_member "tid" json with
    | Some t -> Ok (int_of_float t)
    | None -> err "\"tid\""
  in
  let cat = Option.value (str_member "cat" json) ~default:"" in
  let args =
    match Json.member "args" json with
    | Some (Json.Obj fields) ->
        List.filter_map
          (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v))
          fields
    | _ -> []
  in
  let* phase, dur =
    match str_member "ph" json with
    | Some "X" -> (
        match num_member "dur" json with
        | Some d when d >= 0. -> Ok (`Span, d)
        | Some _ -> err "nonnegative \"dur\""
        | None -> err "\"dur\"")
    | Some "i" -> Ok (`Instant, 0.)
    | Some ph -> fail "event %d (%s): unexpected ph %S" i name ph
    | None -> err "\"ph\""
  in
  if cat = "" then err "\"cat\"" else Ok { name; cat; phase; ts; dur; tid; args }

let events_of_json json =
  let* events =
    match Option.bind (Json.member "traceEvents" json) Json.to_list with
    | Some l -> Ok l
    | None -> fail "no \"traceEvents\" array"
  in
  let* rev =
    List.fold_left
      (fun acc (i, e) ->
        let* acc = acc in
        let* e = event_of_json i e in
        Ok (e :: acc))
      (Ok [])
      (List.mapi (fun i e -> (i, e)) events)
  in
  Ok (List.rev rev)
