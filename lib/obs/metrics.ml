type counter = { c_help : string; count : int Atomic.t }
type gauge = { g_help : string; value : float Atomic.t }

(* 32 log-2 buckets from 1µs up, plus one overflow slot at the end. *)
let n_buckets = 32
let smallest_bucket_s = 1e-6

type histogram = {
  h_help : string;
  buckets : int Atomic.t array;  (* length n_buckets + 1; last = overflow *)
  sum : float Atomic.t;
}

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let counter ?(help = "") name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (C c) -> c
      | Some _ -> invalid_arg ("Metrics: " ^ name ^ " is not a counter")
      | None ->
          let c = { c_help = help; count = Atomic.make 0 } in
          Hashtbl.add registry name (C c);
          c)

let incr c = Atomic.incr c.count
let add c n = ignore (Atomic.fetch_and_add c.count n)
let counter_value c = Atomic.get c.count

let gauge ?(help = "") name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (G g) -> g
      | Some _ -> invalid_arg ("Metrics: " ^ name ^ " is not a gauge")
      | None ->
          let g = { g_help = help; value = Atomic.make 0. } in
          Hashtbl.add registry name (G g);
          g)

let set g v = Atomic.set g.value v

let rec observe_max g v =
  let cur = Atomic.get g.value in
  if v > cur && not (Atomic.compare_and_set g.value cur v) then observe_max g v

let gauge_value g = Atomic.get g.value

let histogram ?(help = "") name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (H h) -> h
      | Some _ -> invalid_arg ("Metrics: " ^ name ^ " is not a histogram")
      | None ->
          let h =
            {
              h_help = help;
              buckets = Array.init (n_buckets + 1) (fun _ -> Atomic.make 0);
              sum = Atomic.make 0.;
            }
          in
          Hashtbl.add registry name (H h);
          h)

let bucket_upper i =
  if i >= n_buckets then infinity
  else smallest_bucket_s *. Float.of_int (1 lsl i)

let bucket_index v =
  if v <= smallest_bucket_s then 0
  else
    let i = int_of_float (Float.ceil (Float.log2 (v /. smallest_bucket_s))) in
    if i >= n_buckets then n_buckets else i

let rec atomic_add_float a x =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. x)) then atomic_add_float a x

let observe h v =
  Atomic.incr h.buckets.(bucket_index v);
  atomic_add_float h.sum v

let hist_count h =
  Array.fold_left (fun acc b -> acc + Atomic.get b) 0 h.buckets

let hist_sum h = Atomic.get h.sum

let bucket_counts h =
  Array.to_list (Array.mapi (fun i b -> (bucket_upper i, Atomic.get b)) h.buckets)

(* --- export ------------------------------------------------------------- *)

let sorted_metrics () =
  with_registry (fun () ->
      Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot () =
  let metrics = sorted_metrics () in
  let counters =
    List.filter_map
      (function
        | name, C c -> Some (name, Json.Num (float_of_int (counter_value c)))
        | _ -> None)
      metrics
  in
  let gauges =
    List.filter_map
      (function name, G g -> Some (name, Json.Num (gauge_value g)) | _ -> None)
      metrics
  in
  let histograms =
    List.filter_map
      (function
        | name, H h ->
            let buckets =
              List.filter_map
                (fun (ub, c) ->
                  (* Empty buckets are noise in a 33-bucket layout; the
                     boundaries are recomputable from the index. *)
                  if c = 0 then None
                  else
                    Some
                      (Json.Obj
                         [
                           ( "le",
                             if ub = infinity then Json.Str "+Inf"
                             else Json.Num ub );
                           ("count", Json.Num (float_of_int c));
                         ]))
                (bucket_counts h)
            in
            Some
              ( name,
                Json.Obj
                  [
                    ("count", Json.Num (float_of_int (hist_count h)));
                    ("sum", Json.Num (hist_sum h));
                    ("buckets", Json.Arr buckets);
                  ] )
        | _ -> None)
      metrics
  in
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj histograms);
    ]

let to_json () = Json.to_string (snapshot ())

let prom_float v =
  if v = infinity then "+Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let to_prometheus () =
  let buf = Buffer.create 4096 in
  let header name help kind =
    if help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  List.iter
    (fun (name, m) ->
      match m with
      | C c ->
          header name c.c_help "counter";
          Buffer.add_string buf (Printf.sprintf "%s %d\n" name (counter_value c))
      | G g ->
          header name g.g_help "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s %s\n" name (prom_float (gauge_value g)))
      | H h ->
          header name h.h_help "histogram";
          let cumulative = ref 0 in
          List.iter
            (fun (ub, c) ->
              cumulative := !cumulative + c;
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name (prom_float ub)
                   !cumulative))
            (bucket_counts h);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum %s\n" name (prom_float (hist_sum h)));
          Buffer.add_string buf
            (Printf.sprintf "%s_count %d\n" name (hist_count h)))
    (sorted_metrics ());
  Buffer.contents buf

let write_json path = File.write_atomic path (to_json ())
let write_prometheus path = File.write_atomic path (to_prometheus ())

let reset () =
  List.iter
    (fun (_, m) ->
      match m with
      | C c -> Atomic.set c.count 0
      | G g -> Atomic.set g.value 0.
      | H h ->
          Array.iter (fun b -> Atomic.set b 0) h.buckets;
          Atomic.set h.sum 0.)
    (sorted_metrics ())
