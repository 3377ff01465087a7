module Rng = Rats_util.Rng
module Units = Rats_util.Units

type t = {
  id : int;
  name : string;
  data_elements : float;
  flop : float;
  alpha : float;
}

let min_elements = 4. *. Units.mega
let max_elements = 121. *. Units.mega

(* Each check is written so that NaN fails it. *)
let make ~id ~name ~data_elements ~flop ~alpha =
  if data_elements < 0. then invalid_arg "Task.make: negative data size";
  if not (Float.is_finite data_elements) then
    invalid_arg "Task.make: non-finite data size";
  if flop < 0. then invalid_arg "Task.make: negative flop";
  if not (Float.is_finite flop) then invalid_arg "Task.make: non-finite flop";
  if not (alpha >= 0. && alpha <= 1.) then
    invalid_arg "Task.make: alpha outside [0,1]";
  { id; name; data_elements; flop; alpha }

let virtual_task ~id ~name =
  { id; name; data_elements = 0.; flop = 0.; alpha = 0. }

let is_virtual t = t.flop = 0. && t.data_elements = 0.

let random_with_elements rng ~id ~name ~data_elements =
  let a = Rng.uniform rng 64. 512. in
  let alpha = Rng.uniform rng 0. 0.25 in
  make ~id ~name ~data_elements ~flop:(a *. data_elements) ~alpha

let random rng ~id ~name =
  let m = Rng.uniform rng min_elements max_elements in
  random_with_elements rng ~id ~name ~data_elements:m

let data_bytes t = t.data_elements *. Units.bytes_per_element

let seq_time t ~speed =
  if speed <= 0. then invalid_arg "Task.seq_time: non-positive speed";
  t.flop /. speed

let time t ~speed ~procs =
  if procs < 1 then invalid_arg "Task.time: procs < 1";
  let seq = seq_time t ~speed in
  seq *. (t.alpha +. ((1. -. t.alpha) /. float_of_int procs))

let work t ~speed ~procs = float_of_int procs *. time t ~speed ~procs

let relabel t ~id = { t with id }

let pp ppf t =
  Format.fprintf ppf "%s#%d(m=%a, %.2eflop, a=%.3f)" t.name t.id
    Rats_util.Units.pp_bytes (data_bytes t) t.flop t.alpha
