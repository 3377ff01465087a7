type kind = Crash | Delay | Corrupt

type probs = { crash : float; delay : float; corrupt : float }

type t = {
  seed : int;
  delay_s : float;
  global : probs;
  per_site : (string * kind * float) list;
}

exception Injected of string

let () =
  Printexc.register_printer (function
    | Injected where -> Some (Printf.sprintf "Fault.Injected(%s)" where)
    | _ -> None)

let no_probs = { crash = 0.; delay = 0.; corrupt = 0. }

let kind_name = function
  | Crash -> "crash"
  | Delay -> "delay"
  | Corrupt -> "corrupt"

let kind_of_name = function
  | "crash" -> Some Crash
  | "delay" -> Some Delay
  | "corrupt" -> Some Corrupt
  | _ -> None

let parse s =
  let ( let* ) = Result.bind in
  let fields =
    List.filter_map
      (fun f ->
        let f = String.trim f in
        if f = "" then None else Some f)
      (String.split_on_char ',' s)
  in
  let prob name v =
    match float_of_string_opt v with
    | Some p when p >= 0. && p <= 1. -> Ok p
    | _ -> Error (Printf.sprintf "%s: probability %S not in [0,1]" name v)
  in
  let field acc f =
    let* t = acc in
    match String.index_opt f '=' with
    | None -> Error (Printf.sprintf "expected key=value, got %S" f)
    | Some i -> (
        let k = String.trim (String.sub f 0 i) in
        let v = String.trim (String.sub f (i + 1) (String.length f - i - 1)) in
        match k with
        | "seed" -> (
            match int_of_string_opt v with
            | Some seed -> Ok { t with seed }
            | None -> Error (Printf.sprintf "seed: %S is not an integer" v))
        | "delay_s" -> (
            match float_of_string_opt v with
            | Some d when d >= 0. -> Ok { t with delay_s = d }
            | _ -> Error (Printf.sprintf "delay_s: %S is not a duration" v))
        | "crash" ->
            let* p = prob k v in
            Ok { t with global = { t.global with crash = p } }
        | "delay" ->
            let* p = prob k v in
            Ok { t with global = { t.global with delay = p } }
        | "corrupt" ->
            let* p = prob k v in
            Ok { t with global = { t.global with corrupt = p } }
        | _ -> (
            (* kind@site=P *)
            match String.index_opt k '@' with
            | Some j -> (
                let kn = String.sub k 0 j in
                let site = String.sub k (j + 1) (String.length k - j - 1) in
                match kind_of_name kn with
                | Some kind when site <> "" ->
                    let* p = prob k v in
                    Ok { t with per_site = (site, kind, p) :: t.per_site }
                | _ -> Error (Printf.sprintf "unknown fault kind in %S" k))
            | None -> Error (Printf.sprintf "unknown field %S" k)))
  in
  List.fold_left field
    (Ok { seed = 0; delay_s = 0.05; global = no_probs; per_site = [] })
    fields

let of_env () =
  match Sys.getenv_opt "RATS_FAULT" with
  | None -> None
  | Some s when String.trim s = "" || String.lowercase_ascii (String.trim s) = "off"
    ->
      None
  | Some s -> (
      match parse s with
      | Ok t -> Some t
      | Error reason ->
          Printf.eprintf "RATS_FAULT: %s\n%!" reason;
          exit 2)

let spec t =
  let b = Buffer.create 64 in
  Buffer.add_string b (Printf.sprintf "seed=%d" t.seed);
  if t.delay_s <> 0.05 then
    Buffer.add_string b (Printf.sprintf ",delay_s=%g" t.delay_s);
  let add name p = if p > 0. then Buffer.add_string b (Printf.sprintf ",%s=%g" name p) in
  add "crash" t.global.crash;
  add "delay" t.global.delay;
  add "corrupt" t.global.corrupt;
  List.iter
    (fun (site, kind, p) ->
      Buffer.add_string b (Printf.sprintf ",%s@%s=%g" (kind_name kind) site p))
    (List.rev t.per_site);
  Buffer.contents b

let probability t kind site =
  let override =
    List.find_map
      (fun (s, k, p) -> if s = site && k = kind then Some p else None)
      t.per_site
  in
  match override with
  | Some p -> p
  | None -> (
      match kind with
      | Crash -> t.global.crash
      | Delay -> t.global.delay
      | Corrupt -> t.global.corrupt)

(* Decision = (first 8 digest bytes of seed/kind/site/key as a uniform draw
   in [0,1)) < probability. MD5 is plenty for spreading decisions; no
   shared state, so the decision is identical across worker interleavings. *)
let draw t kind ~site ~key =
  let d =
    Digest.string
      (Printf.sprintf "%d\x00%s\x00%s\x00%s" t.seed (kind_name kind) site key)
  in
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor (Int64.shift_left !bits 8)
              (Int64.of_int (Char.code d.[i]))
  done;
  Int64.to_float (Int64.shift_right_logical !bits 11) /. 9007199254740992.

let fires t kind ~site ~key =
  let p = probability t kind site in
  p > 0. && draw t kind ~site ~key < p

let injected () = Rats_obs.Metrics.incr Rats_obs.Instr.fault_injections

let crash_point t ~site ~key =
  match t with
  | Some t when fires t Crash ~site ~key ->
      injected ();
      raise (Injected (Printf.sprintf "%s:%s" site key))
  | _ -> ()

let delay_point t ~site ~key =
  match t with
  | Some t when fires t Delay ~site ~key ->
      injected ();
      Unix.sleepf t.delay_s
  | _ -> ()

let corrupt_payload t ~site ~key payload =
  match t with
  | Some t when fires t Corrupt ~site ~key ->
      injected ();
      let n = String.length payload in
      if n = 0 then "\xff"
      else begin
        (* Truncate to half and flip a bit in the first byte: defeats both
           length- and content-based validation. *)
        let b = Bytes.of_string (String.sub payload 0 (max 1 (n / 2))) in
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
        Bytes.to_string b
      end
  | _ -> payload
