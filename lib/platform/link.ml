module Units = Rats_util.Units

type t = { latency : float; bandwidth : float }

let make ~latency ~bandwidth =
  (* Written so that NaN fails them. *)
  if not (latency >= 0.) then invalid_arg "Link.make: negative latency";
  if not (bandwidth > 0.) then invalid_arg "Link.make: non-positive bandwidth";
  { latency; bandwidth }

let gigabit =
  make ~latency:(Units.microseconds 100.) ~bandwidth:(Units.gbit_per_s 1.)

let pp ppf l =
  Format.fprintf ppf "%a/%.2fMB/s" Units.pp_time l.latency (l.bandwidth /. 1e6)
