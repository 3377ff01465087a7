(* Per-layer accounting for the traced run.

   The benchmark records its own spans around the calls it makes into each
   layer, on a tracer it never installs: the library's internal spans stay
   off, so the traced run measures the same code paths as the untraced one
   plus one clock read per span edge. A layer's self time is the duration
   of its spans minus the part their direct children cover, computed per
   recording domain (pool workers nest their spans independently). *)

module Trace = Rats_obs.Trace

(* Every layer a workload can pass through, in report order. Span names
   are layer names. [bench] is the harness's own glue around each op. *)
let names =
  [
    "bench";
    "runtime";
    "daggen";
    "problem";
    "alloc";
    "map";
    "evaluate";
    "server.submit";
    "server.engine";
    "api.validate";
    "api.response";
    "protocol.decode";
    "protocol.encode";
  ]

let span tracer name f =
  match tracer with None -> f () | Some t -> Trace.span_on t ~cat:"perf" name f

(* Self time in seconds per span name, summed over domains, sorted by name.
   [events] are in [Trace.events] order: by start, enclosing spans first. *)
let self_times (events : Trace.event list) =
  let spans = List.filter (fun (e : Trace.event) -> e.phase = `Span) events in
  let totals = Hashtbl.create 16 in
  let add name us =
    let prev = Option.value (Hashtbl.find_opt totals name) ~default:0. in
    Hashtbl.replace totals name (prev +. us)
  in
  let tids =
    List.sort_uniq Int.compare (List.map (fun (e : Trace.event) -> e.tid) spans)
  in
  List.iter
    (fun tid ->
      (* Open spans, innermost first: (end, name, duration, children's total). *)
      let stack = ref [] in
      let close (_, name, dur, children) = add name (dur -. !children) in
      List.iter
        (fun (e : Trace.event) ->
          if e.tid = tid then begin
            let rec pop () =
              match !stack with
              | ((stop, _, _, _) as top) :: rest when stop <= e.ts ->
                  close top;
                  stack := rest;
                  pop ()
              | _ -> ()
            in
            pop ();
            (match !stack with
            | (_, _, _, children) :: _ -> children := !children +. e.dur
            | [] -> ());
            stack := (e.ts +. e.dur, e.name, e.dur, ref 0.) :: !stack
          end)
        spans;
      List.iter close !stack)
    tids;
  Hashtbl.fold (fun name us acc -> (name, us /. 1e6) :: acc) totals []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
