module Rng = Rats_util.Rng

type t = {
  width : float;
  regularity : float;
  density : float;
  jump : int;
}

let make ~width ~regularity ~density ?(jump = 1) () =
  let check name v =
    if not (v > 0. && v <= 1.) then
      invalid_arg (Printf.sprintf "Shape.make: %s outside (0,1]" name)
  in
  check "width" width;
  check "regularity" regularity;
  check "density" density;
  if jump < 1 then invalid_arg "Shape.make: jump < 1";
  { width; regularity; density; jump }

let level_sizes t rng ~n_tasks =
  if n_tasks <= 0 then invalid_arg "Shape.level_sizes: n_tasks <= 0";
  let target = Float.max 1. (float_of_int n_tasks ** t.width) in
  let rec draw remaining acc =
    if remaining = 0 then List.rev acc
    else begin
      let factor = Rng.uniform rng t.regularity (2. -. t.regularity) in
      let size = max 1 (int_of_float (Float.round (target *. factor))) in
      let size = min size remaining in
      draw (remaining - size) (size :: acc)
    end
  in
  Array.of_list (draw n_tasks [])

let pp ppf t =
  Format.fprintf ppf "w=%.1f r=%.1f d=%.1f j=%d" t.width t.regularity t.density
    t.jump
