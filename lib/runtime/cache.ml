module Metrics = Rats_obs.Metrics
module Instr = Rats_obs.Instr
module File = Rats_obs.File

type t = {
  dir : string;
  fault : Fault.t option;
  hits : int Atomic.t;
  misses : int Atomic.t;
  quarantined : int Atomic.t;
}

(* v3: the engine's incremental max-min solver water-fills per connected
   component, shifting fair rates (and thus some makespans) by rounding
   ulps relative to the old whole-set solve. v2: receiver-rank placement
   now falls back to natural order when greedy keeps fewer bytes local. *)
let version = "rats-runtime-3"

let default_dir = Filename.concat "bench_results" ".cache"

let quarantine_subdir = "quarantine"

let create ?fault ?(dir = default_dir) () =
  (* An uncreatable directory (permissions, a file in the way) must not
     kill the run: the cache degrades to a pure miss machine. *)
  (try File.mkdir_p dir with Sys_error _ | Unix.Unix_error _ -> ());
  {
    dir;
    fault;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    quarantined = Atomic.make 0;
  }

let of_env ?fault () =
  match Option.map String.lowercase_ascii (Sys.getenv_opt "RATS_CACHE") with
  | Some ("off" | "0" | "no" | "false") -> None
  | _ ->
      let dir =
        Option.value (Sys.getenv_opt "RATS_CACHE_DIR") ~default:default_dir
      in
      Some (create ?fault ~dir ())

(* Length-prefixing each part makes the encoding injective: ["ab"; "c"] and
   ["a"; "bc"] hash differently. *)
let key parts =
  let buf = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string buf (string_of_int (String.length p));
      Buffer.add_char buf ':';
      Buffer.add_string buf p)
    (version :: parts);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let path t key = Filename.concat t.dir (key ^ ".cache")

let quarantine_dir t = Filename.concat t.dir quarantine_subdir

(* Entry layout: 32 hex chars (MD5 of the payload), '\n', payload. *)
let read_entry file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      if len < 33 then None
      else begin
        let checksum = really_input_string ic 32 in
        let sep = input_char ic in
        let payload = really_input_string ic (len - 33) in
        if sep = '\n' && Digest.to_hex (Digest.string payload) = checksum then
          Some payload
        else None
      end)

(* A damaged entry is evidence — of a torn write, bad disk, or injected
   fault — so it is moved aside for post-mortem rather than destroyed; the
   slot becomes writable again either way. *)
let quarantine t file =
  Atomic.incr t.quarantined;
  Metrics.incr Instr.cache_quarantined;
  let moved =
    try
      File.mkdir_p (quarantine_dir t);
      Sys.rename file
        (Filename.concat (quarantine_dir t) (Filename.basename file));
      true
    with Sys_error _ | Unix.Unix_error _ -> false
  in
  if not moved then try Sys.remove file with Sys_error _ -> ()

let find t key =
  Instr.timed Instr.cache_read_seconds (fun () ->
      let file = path t key in
      let entry =
        if Sys.file_exists file then
          match read_entry file with
          | Some _ as e -> e
          | None | (exception _) ->
              quarantine t file;
              None
        else None
      in
      (match entry with
      | Some _ ->
          Atomic.incr t.hits;
          Metrics.incr Instr.cache_hits
      | None ->
          Atomic.incr t.misses;
          Metrics.incr Instr.cache_misses);
      entry)

let store t key payload =
  Instr.timed Instr.cache_write_seconds @@ fun () ->
  (* Injected write faults: [Corrupt] damages the payload after the
     checksum is taken (a torn write the reader must catch and quarantine);
     [Crash] aborts the write mid-entry like a full disk would. *)
  let checksum = Digest.to_hex (Digest.string payload) in
  let payload_to_write =
    Fault.corrupt_payload t.fault ~site:"cache.write" ~key payload
  in
  let tmp = ref None in
  try
    File.mkdir_p t.dir;
    let tmp_file, oc =
      Filename.open_temp_file ~mode:[ Open_binary ] ~temp_dir:t.dir
        "entry" ".tmp"
    in
    tmp := Some tmp_file;
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc checksum;
        output_char oc '\n';
        (match t.fault with
        | Some fault when Fault.fires fault Fault.Crash ~site:"cache.write" ~key
          ->
            (* Half the payload lands, then the device fills up. *)
            output_string oc
              (String.sub payload_to_write 0 (String.length payload_to_write / 2));
            raise (Unix.Unix_error (Unix.ENOSPC, "write", tmp_file))
        | _ -> ());
        output_string oc payload_to_write);
    Sys.rename tmp_file (path t key);
    tmp := None
  with Sys_error _ | Unix.Unix_error _ -> (
    (* The cache is an accelerator, never a correctness dependency; a
       failed write must also not leak its temp file. *)
    match !tmp with
    | Some file -> (try Sys.remove file with Sys_error _ -> ())
    | None -> ())

let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses
let quarantined t = Atomic.get t.quarantined

let hit_rate t =
  let h = hits t and m = misses t in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)
