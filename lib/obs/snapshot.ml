type hist = { count : int; sum : float; buckets : (float * int) list }

type t = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist) list;
}

let empty = { counters = []; gauges = []; histograms = [] }

(* Each section is an object of name → value; members whose value has the
   wrong shape are dropped rather than failing the whole parse, so a
   snapshot from a newer writer still yields everything we understand. *)
let assoc name json of_value =
  match Json.member name json with
  | Some (Json.Obj fields) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun v -> (k, v)) (of_value v))
        fields
  | _ -> []

(* The writer ({!Metrics}) encodes the overflow bucket's bound as the
   string ["+Inf"] — JSON has no infinity literal. *)
let bound_of_json json =
  match json with
  | Json.Str ("+Inf" | "inf" | "Inf" | "Infinity") -> Some infinity
  | _ -> Json.to_float json

let hist_of_json json =
  match (Json.member "count" json, Json.member "sum" json) with
  | Some c, Some s -> (
      match (Json.to_int c, Json.to_float s) with
      | Some count, Some sum ->
          let buckets =
            match Option.bind (Json.member "buckets" json) Json.to_list with
            | Some bs ->
                List.filter_map
                  (fun b ->
                    match
                      ( Option.bind (Json.member "le" b) bound_of_json,
                        Option.bind (Json.member "count" b) Json.to_int )
                    with
                    | Some le, Some n -> Some (le, n)
                    | _ -> None)
                  bs
            | None -> []
          in
          Some { count; sum; buckets }
      | _ -> None)
  | _ -> None

let of_json json =
  let is_obj section =
    match Json.member section json with Some (Json.Obj _) -> true | _ -> false
  in
  if List.for_all is_obj [ "counters"; "gauges"; "histograms" ] then
    Ok
      {
        counters = assoc "counters" json Json.to_int;
        gauges = assoc "gauges" json Json.to_float;
        histograms = assoc "histograms" json hist_of_json;
      }
  else Error "missing counters/gauges/histograms objects"

let of_file path =
  Result.bind (File.read_json path) (fun json ->
      Result.map_error (fun msg -> path ^ ": " ^ msg) (of_json json))

let counter t name = List.assoc_opt name t.counters
let histogram t name = List.assoc_opt name t.histograms
