module Trace = Rats_obs.Trace

let margin_left = 60.
let margin_top = 40.
let row_height = 14.
let lane_gap = 8.
let chart_width = 900.

(* Same palette trick as the Gantt renderer, keyed by category so all
   pool:task boxes share a color, all cache spans another, etc. *)
let color_of_cat cat =
  let hue = (Hashtbl.hash cat * 2654435761) land 0xFFFF mod 360 in
  Printf.sprintf "hsl(%d, 65%%, 55%%)" hue

(* Nesting depth per span within a lane: events arrive sorted by [ts] with
   longer spans first on ties, so a running stack of enclosing span ends
   gives each event the row it should stack on. *)
let with_depths lane =
  let stack = ref [] in
  List.map
    (fun (e : Trace.event) ->
      let rec pop = function
        | fin :: rest when fin <= e.Trace.ts +. 1e-9 -> pop rest
        | stack -> stack
      in
      stack := pop !stack;
      let depth = List.length !stack in
      if e.Trace.phase = `Span then
        stack := (e.Trace.ts +. e.Trace.dur) :: !stack;
      (depth, e))
    lane

let render ?(title = "trace timeline") events =
  let tids =
    List.sort_uniq compare (List.map (fun e -> e.Trace.tid) events)
  in
  let lanes =
    List.map
      (fun tid ->
        let lane = List.filter (fun e -> e.Trace.tid = tid) events in
        (tid, with_depths lane))
      tids
  in
  let depth_of lane =
    List.fold_left (fun acc (d, _) -> max acc (d + 1)) 1 lane
  in
  let t_max =
    List.fold_left
      (fun acc e -> Float.max acc (e.Trace.ts +. e.Trace.dur))
      1e-9 events
  in
  let total_rows =
    List.fold_left (fun acc (_, lane) -> acc + depth_of lane) 0 lanes
  in
  let height =
    margin_top
    +. (float_of_int total_rows *. row_height)
    +. (float_of_int (List.length lanes) *. lane_gap)
    +. 30.
  in
  let svg = Svg.create ~width:(chart_width +. margin_left +. 20.) ~height in
  Svg.title svg ~x:margin_left ~y:20. title;
  let x_of ts = margin_left +. (ts /. t_max *. chart_width) in
  let lane_top = ref margin_top in
  List.iter
    (fun (tid, lane) ->
      let rows = depth_of lane in
      let lane_h = float_of_int rows *. row_height in
      Svg.text svg ~x:(margin_left -. 6.) ~y:(!lane_top +. row_height -. 3.)
        ~size:8. ~anchor:"end"
        (Printf.sprintf "d%d" tid);
      Svg.line svg ~x1:margin_left ~y1:(!lane_top +. lane_h)
        ~x2:(x_of t_max) ~y2:(!lane_top +. lane_h) ~width:0.5 ~stroke:"#ccc" ();
      List.iter
        (fun (depth, (e : Trace.event)) ->
          let y = !lane_top +. (float_of_int depth *. row_height) in
          match e.Trace.phase with
          | `Span ->
              let x = x_of e.Trace.ts in
              let w = Float.max 0.5 (x_of (e.Trace.ts +. e.Trace.dur) -. x) in
              Svg.rect svg ~x ~y ~w ~h:(row_height -. 1.) ~stroke:"#333"
                ~fill:(color_of_cat e.Trace.cat) ();
              if w > 30. then
                Svg.text svg ~x:(x +. 2.) ~y:(y +. row_height -. 4.) ~size:8.
                  ~fill:"#fff" e.Trace.name
          | `Instant ->
              let x = x_of e.Trace.ts in
              Svg.line svg ~x1:x ~y1:y ~x2:x ~y2:(y +. row_height -. 1.)
                ~width:1.5 ~stroke:"#c00" ())
        lane;
      lane_top := !lane_top +. lane_h +. lane_gap)
    lanes;
  (* Time axis, in milliseconds. *)
  let axis_y = !lane_top in
  Svg.line svg ~x1:margin_left ~y1:axis_y ~x2:(x_of t_max) ~y2:axis_y
    ~stroke:"#444" ();
  for k = 0 to 8 do
    let ts = t_max *. float_of_int k /. 8. in
    let x = x_of ts in
    Svg.line svg ~x1:x ~y1:axis_y ~x2:x ~y2:(axis_y +. 4.) ~stroke:"#444" ();
    Svg.text svg ~x ~y:(axis_y +. 14.) ~size:8. ~anchor:"middle"
      (Printf.sprintf "%.2fms" (ts /. 1e3))
  done;
  svg
