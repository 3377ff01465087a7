module Cluster = Rats_platform.Cluster
module Suite = Rats_daggen.Suite
module Shape = Rats_daggen.Shape
module Rats = Rats_core.Rats

type t = { name : string; seed : int; n_jobs : int; tenants : Tenant.t list }

let validate t =
  if t.n_jobs < 1 then invalid_arg "Profile: n_jobs < 1";
  if t.tenants = [] then invalid_arg "Profile: no tenants";
  let names = List.map (fun (tn : Tenant.t) -> tn.Tenant.name) t.tenants in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Profile: duplicate tenant names";
  List.iter Tenant.validate t.tenants

let jobs_per_tenant t =
  let n_tenants = List.length t.tenants in
  Array.init n_tenants (fun i ->
      (t.n_jobs / n_tenants) + if i < t.n_jobs mod n_tenants then 1 else 0)

(* Small configurations only, in the historical load generator's pool
   order: byte-identical traces for the poisson preset depend on it. *)
let service_mix : App.mix =
  [|
    ( 1,
      App.Suite_spec
        (Suite.Layered
           {
             n_tasks = 25;
             shape = Shape.make ~width:0.5 ~regularity:0.8 ~density:0.2 ();
           }) );
    ( 1,
      App.Suite_spec
        (Suite.Layered
           {
             n_tasks = 25;
             shape = Shape.make ~width:0.2 ~regularity:0.2 ~density:0.8 ();
           }) );
    ( 1,
      App.Suite_spec
        (Suite.Irregular
           {
             n_tasks = 25;
             shape =
               Shape.make ~width:0.5 ~regularity:0.2 ~density:0.2 ~jump:2 ();
           }) );
    (1, App.Suite_spec (Suite.Fft { k = 2 }));
    (1, App.Suite_spec Suite.Strassen);
  |]

let mi = 1024. *. 1024.

let pipeline_mix : App.mix =
  [|
    ( 1,
      App.Pipeline
        { App.stages = 5; data_elements = 4. *. mi; flop = 4e9; alpha = 0.05 }
    );
    ( 1,
      App.Pipeline
        { App.stages = 8; data_elements = 8. *. mi; flop = 6e9; alpha = 0.05 }
    );
    ( 1,
      App.Pipeline
        { App.stages = 12; data_elements = 16. *. mi; flop = 8e9; alpha = 0.1 }
    );
  |]

type preset = Poisson | Bursty | Diurnal | Pipeline | Mixed

let presets =
  [
    ("poisson", Poisson);
    ("bursty", Bursty);
    ("diurnal", Diurnal);
    ("pipeline", Pipeline);
    ("mixed", Mixed);
  ]

type params = { jobs : int; tenants : int; rate : float; seed : int }

let default_params = { jobs = 120; tenants = 4; rate = 0.05; seed = 42 }

(* Per-tenant arrival process of each non-poisson preset, parameterised by the
   tenant's even share of the aggregate rate. Burst and diurnal shapes keep
   the same long-run average rate as the poisson preset, so arm comparisons
   across presets see the same offered load, differently clumped. *)
let bursty_arrival per_rate =
  (* On one fifth of the time at 5x the average rate: flash crowds. *)
  Arrival.Bursty
    {
      rate_on = 5. *. per_rate;
      rate_off = 0.;
      mean_on = 40. /. per_rate *. 0.2;
      mean_off = 40. /. per_rate *. 0.8;
    }

let diurnal_arrival per_rate =
  Arrival.Diurnal
    { base = per_rate; amplitude = 0.9; period = 400. /. per_rate }

let check_params p =
  if p.jobs < 1 then Error (Printf.sprintf "jobs must be >= 1, got %d" p.jobs)
  else if p.tenants < 1 then
    Error (Printf.sprintf "tenants must be >= 1, got %d" p.tenants)
  else if not (Float.is_finite p.rate && p.rate > 0.) then
    Error (Printf.sprintf "rate must be finite and > 0, got %g" p.rate)
  else Ok ()

let preset ~cluster ~name kind params =
  Result.map
    (fun () ->
      let n = Cluster.n_procs cluster in
      let share = Tenant.Uniform { lo = max 1 (n / 4); hi = n } in
      let strategy = Rats.Delta Rats.naive_delta in
      let per_rate = params.rate /. float_of_int params.tenants in
      let poisson = Arrival.Poisson { rate = per_rate } in
      let tenant i =
        let arrival, mix =
          match kind with
          | Poisson -> (poisson, service_mix)
          | Bursty -> (bursty_arrival per_rate, service_mix)
          | Diurnal -> (diurnal_arrival per_rate, service_mix)
          | Pipeline -> (poisson, pipeline_mix)
          | Mixed -> (
              (* Tenant classes cycle: open-loop, flash-crowd, day/night,
                 pipeline. *)
              match i mod 4 with
              | 0 -> (poisson, service_mix)
              | 1 -> (bursty_arrival per_rate, service_mix)
              | 2 -> (diurnal_arrival per_rate, service_mix)
              | _ -> (poisson, pipeline_mix))
        in
        {
          Tenant.name = Printf.sprintf "tenant-%d" i;
          arrival;
          mix;
          samples = 3;
          share;
          strategy;
        }
      in
      {
        name;
        seed = params.seed;
        n_jobs = params.jobs;
        tenants = List.init params.tenants tenant;
      })
    (check_params params)

(* Values are only parsed here; [check_params] checks their ranges. *)
let parse_params base kvs =
  List.fold_left
    (fun acc kv ->
      Result.bind acc (fun params ->
          let bad what v = Error (Printf.sprintf "bad %s value %S" what v) in
          match String.split_on_char '=' kv with
          | [ "jobs"; v ] -> (
              match int_of_string_opt v with
              | Some jobs -> Ok { params with jobs }
              | None -> bad "jobs" v)
          | [ "tenants"; v ] -> (
              match int_of_string_opt v with
              | Some tenants -> Ok { params with tenants }
              | None -> bad "tenants" v)
          | [ "rate"; v ] -> (
              match float_of_string_opt v with
              | Some rate -> Ok { params with rate }
              | None -> bad "rate" v)
          | [ "seed"; v ] -> (
              match int_of_string_opt v with
              | Some seed -> Ok { params with seed }
              | None -> bad "seed" v)
          | _ -> Error (Printf.sprintf "bad profile option %S" kv)))
    (Ok base) kvs

let of_string ~cluster ?seed spec =
  let name, kvs =
    match String.index_opt spec ':' with
    | None -> (spec, [])
    | Some i ->
        ( String.sub spec 0 i,
          String.split_on_char ','
            (String.sub spec (i + 1) (String.length spec - i - 1)) )
  in
  match List.assoc_opt name presets with
  | None ->
      Error
        (Printf.sprintf "unknown profile %S (expected one of: %s)" name
           (String.concat ", " (List.map fst presets)))
  | Some kind ->
      Result.bind (parse_params default_params kvs) (fun params ->
          let seed = Option.value seed ~default:params.seed in
          preset ~cluster ~name kind { params with seed })
