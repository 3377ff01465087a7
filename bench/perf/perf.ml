(* The repo's benchmark. Run from the repository root:

     perf.exe --workload W [--seed S] [--seconds T] [--trace 0|1] [--out DIR]
     perf.exe all [--seed S] [--runs N] [--seconds T] [--trace 0|1] [--out DIR]
     perf.exe compare A B

   The first form runs one workload and prints its metrics, then, as the
   last line of stdout, one JSON object with the keys correct, attempted,
   failed and metrics (end-to-end metrics untraced, per-layer metrics with
   --trace 1). [all] runs every workload, each in its own child process
   and one at a time, for seeds S .. S+N-1. [--out DIR] also writes each
   run's full record there, for [compare] (see compare.ml). Exit status: 0
   when every output check passed, 1 when one failed, 2 on bad usage. *)

open Rats_perf

let workloads = [ Sweep.grillon; Sweep.grelon; Service.workload; Plan_large.workload ]
let scratch_root = "bench/perf/_out"

let usage () =
  prerr_string
    "usage: perf.exe --workload W [--seed S] [--seconds T] [--trace 0|1] [--out DIR]\n\
    \       perf.exe all [--seed S] [--runs N] [--seconds T] [--trace 0|1] [--out DIR]\n\
    \       perf.exe compare A B\n\
     workloads: ";
  prerr_endline (String.concat ", " (List.map Workload.name workloads));
  exit 2

type opts = {
  workload : string option;
  seed : int;
  runs : int;
  seconds : float;
  trace : bool;
  out : string option;
  rest : string list;
}

let parse args =
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | _ ->
        Printf.eprintf "invalid %s value %S\n" flag v;
        usage ()
  in
  let rec go o = function
    | [] -> { o with rest = List.rev o.rest }
    | "--workload" :: v :: tl -> go { o with workload = Some v } tl
    | "--seed" :: v :: tl -> go { o with seed = int_arg "--seed" v } tl
    | "--runs" :: v :: tl -> go { o with runs = max 1 (int_arg "--runs" v) } tl
    | "--seconds" :: v :: tl -> go { o with seconds = float_of_int (max 1 (int_arg "--seconds" v)) } tl
    | "--trace" :: ("0" | "1" as v) :: tl -> go { o with trace = v = "1" } tl
    | "--out" :: v :: tl -> go { o with out = Some v } tl
    | ("-h" | "--help") :: _ -> usage ()
    | a :: _ when String.length a > 1 && a.[0] = '-' ->
        Printf.eprintf "unknown or incomplete option %S\n" a;
        usage ()
    | a :: tl -> go { o with rest = a :: o.rest } tl
  in
  go
    {
      workload = None;
      seed = 0;
      runs = 1;
      seconds = 10.;
      trace = false;
      out = None;
      rest = [];
    }
    args

let write_record dir (r : Harness.result) =
  Workload.mkdir_p dir;
  let path =
    Filename.concat dir
      (Printf.sprintf "%s-seed%d%s.json" r.workload r.seed (if r.traced then "-trace" else ""))
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Rats_obs.Json.to_string (Harness.record_json r));
      output_char oc '\n')

let run_one o name =
  match List.find_opt (fun w -> Workload.name w = name) workloads with
  | None ->
      Printf.eprintf "unknown workload %S\n" name;
      usage ()
  | Some w ->
      let scratch =
        Filename.concat scratch_root (Printf.sprintf "scratch-%s-%d" name (Unix.getpid ()))
      in
      let r =
        Fun.protect
          ~finally:(fun () -> Workload.rm_rf scratch)
          (fun () ->
            if o.trace then Harness.trace w ~seed:o.seed ~scratch
            else Harness.measure w ~seed:o.seed ~seconds:o.seconds ~scratch)
      in
      Option.iter (fun dir -> write_record dir r) o.out;
      Harness.print Format.std_formatter r;
      print_endline (Rats_obs.Json.to_string (Harness.summary_json r));
      if r.errors = [] then 0 else 1

(* Each workload in its own process, so peak RSS and GC state are its own. *)
let run_all o =
  let failures = ref 0 in
  for k = 0 to o.runs - 1 do
    List.iter
      (fun w ->
        let args =
          [ Sys.executable_name; "--workload"; Workload.name w;
            "--seed"; string_of_int (o.seed + k);
            "--seconds"; Printf.sprintf "%.0f" o.seconds;
            "--trace"; (if o.trace then "1" else "0") ]
          @ (match o.out with Some d -> [ "--out"; d ] | None -> [])
        in
        let pid =
          Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
            Unix.stdout Unix.stderr
        in
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED 0 -> ()
        | _ -> incr failures)
      workloads
  done;
  if !failures = 0 then 0 else 1

let () =
  let o = parse (List.tl (Array.to_list Sys.argv)) in
  let code =
    match (o.workload, o.rest) with
    | Some name, [] -> run_one o name
    | None, [ "all" ] -> run_all o
    | None, [ "compare"; a; b ] -> Compare.run a b
    | _ -> usage ()
  in
  exit code
