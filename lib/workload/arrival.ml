module Rng = Rats_util.Rng

type t =
  | Poisson of { rate : float }
  | Bursty of {
      rate_on : float;
      rate_off : float;
      mean_on : float;
      mean_off : float;
    }
  | Diurnal of { base : float; amplitude : float; period : float }
  | Replay of { times : float array }

let validate = function
  | Poisson { rate } ->
      if rate <= 0. then invalid_arg "Arrival: Poisson rate <= 0"
  | Bursty { rate_on; rate_off; mean_on; mean_off } ->
      if rate_on <= 0. then invalid_arg "Arrival: Bursty rate_on <= 0";
      if rate_off < 0. then invalid_arg "Arrival: Bursty rate_off < 0";
      if mean_on <= 0. || mean_off <= 0. then
        invalid_arg "Arrival: Bursty phase mean <= 0"
  | Diurnal { base; amplitude; period } ->
      if base <= 0. then invalid_arg "Arrival: Diurnal base <= 0";
      if amplitude < 0. || amplitude > 1. then
        invalid_arg "Arrival: Diurnal amplitude outside [0, 1]";
      if period <= 0. then invalid_arg "Arrival: Diurnal period <= 0"
  | Replay { times } ->
      let n = Array.length times in
      if n = 0 then invalid_arg "Arrival: Replay with no times";
      if times.(0) < 0. then invalid_arg "Arrival: Replay time < 0";
      for i = 1 to n - 1 do
        if times.(i) < times.(i - 1) then
          invalid_arg "Arrival: Replay times not sorted"
      done

let name = function
  | Poisson _ -> "poisson"
  | Bursty _ -> "bursty"
  | Diurnal _ -> "diurnal"
  | Replay _ -> "replay"

type state = {
  t : float;  (* last arrival (or 0) *)
  on : bool;  (* Bursty: current phase *)
  phase_end : float;  (* Bursty: when the current phase ends *)
  index : int;  (* Replay: next position *)
}

let start _ = { t = 0.; on = true; phase_end = 0.; index = 0 }

(* Exponential interarrival by inverse transform — the exact float
   expression of the historical load generator, so the poisson preset
   stays byte-identical to it. *)
let exponential rng ~rate =
  let u = Rng.float rng 1. in
  -.log (1. -. u) /. rate

let next process st rng =
  match process with
  | Poisson { rate } ->
      let at = st.t +. exponential rng ~rate in
      ({ st with t = at }, at)
  | Bursty { rate_on; rate_off; mean_on; mean_off } ->
      let rec go st =
        if st.phase_end <= st.t then begin
          (* Current phase exhausted (also the initial state): draw the
             length of the phase starting at [st.t]. *)
          let mean = if st.on then mean_on else mean_off in
          let dur = -.mean *. log (1. -. Rng.float rng 1.) in
          go { st with phase_end = st.t +. dur }
        end
        else begin
          let rate = if st.on then rate_on else rate_off in
          if rate <= 0. then
            (* Silent phase: jump to its end and toggle. *)
            go { st with t = st.phase_end; on = not st.on }
          else begin
            let at = st.t +. exponential rng ~rate in
            if at <= st.phase_end then ({ st with t = at }, at)
            else
              (* Candidate past the boundary: the exponential is
                 memoryless, so discarding it and toggling is exact. *)
              go { st with t = st.phase_end; on = not st.on }
          end
        end
      in
      go st
  | Diurnal { base; amplitude; period } ->
      let peak = base *. (1. +. amplitude) in
      let rate_at time =
        base *. (1. +. (amplitude *. sin (2. *. Float.pi *. time /. period)))
      in
      (* Lewis–Shedler thinning against the constant peak rate. *)
      let rec go t =
        let t = t +. exponential rng ~rate:peak in
        let u = Rng.float rng 1. in
        if u *. peak <= rate_at t then t else go t
      in
      let at = go st.t in
      ({ st with t = at }, at)
  | Replay { times } ->
      let n = Array.length times in
      let span = times.(n - 1) in
      let cycle =
        if span > 0. then span +. (span /. float_of_int n) else 1.
      in
      let k = st.index / n and i = st.index mod n in
      let at = times.(i) +. (float_of_int k *. cycle) in
      ({ st with index = st.index + 1; t = at }, at)

let times process rng ~n =
  validate process;
  if n < 0 then invalid_arg "Arrival.times: n < 0";
  let st = ref (start process) in
  Array.init n (fun _ ->
      let st', at = next process !st rng in
      st := st';
      at)
