module Rng = Rats_util.Rng
module Suite = Rats_daggen.Suite

type pipeline = {
  stages : int;
  data_elements : float;
  flop : float;
  alpha : float;
}

let validate_pipeline p =
  if p.stages < 1 then invalid_arg "App: pipeline stages < 1";
  if p.data_elements <= 0. then invalid_arg "App: pipeline data_elements <= 0";
  if p.flop <= 0. then invalid_arg "App: pipeline flop <= 0";
  if p.alpha < 0. || p.alpha > 1. then
    invalid_arg "App: pipeline alpha outside [0, 1]"

(* Alternating stage weights (1x, 2x, 3x, 1x, ...): consecutive stages have
   different moldable sweet spots, so a decoupled allocation produces a
   redistribution at every stage boundary — exactly what the
   redistribution-aware strategies are supposed to eliminate. *)
let pipeline_task_params p =
  Array.init p.stages (fun i ->
      (p.data_elements, p.flop *. float_of_int (1 + (i mod 3)), p.alpha))

let pipeline_edges p =
  List.init
    (max 0 (p.stages - 1))
    (fun i -> (i, i + 1, 8. *. p.data_elements))

type template = Suite_spec of Suite.spec | Pipeline of pipeline

let mi = 1024. *. 1024.

let pipeline_name p =
  Printf.sprintf "pipeline-s%d-m%.0f" p.stages (p.data_elements /. mi)

type t = Generated of Suite.config | Chain of pipeline

let name = function
  | Generated config -> Suite.name config
  | Chain p -> pipeline_name p

type mix = (int * template) array

let validate_mix mix =
  if Array.length mix = 0 then invalid_arg "App: empty mix";
  Array.iter
    (fun (w, template) ->
      if w < 1 then invalid_arg "App: non-positive mix weight";
      match template with
      | Pipeline p -> validate_pipeline p
      | Suite_spec _ -> ())
    mix

let pick mix rng =
  let total = Array.fold_left (fun acc (w, _) -> acc + w) 0 mix in
  let r = Rng.int rng total in
  let rec go i acc =
    let w, template = mix.(i) in
    if r < acc + w then template else go (i + 1) (acc + w)
  in
  go 0 0
