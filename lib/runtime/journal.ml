type t = {
  path : string;
  mutable fd : Unix.file_descr option;
  entries : (string, string * bool) Hashtbl.t;
      (** Payload per key, and whether the run being resumed wrote it;
          guarded by [table]. *)
  loaded : int;
  mutable appended : int;
  mutex : Mutex.t;  (** Serialises appends and [close]. *)
  table : Mutex.t;
      (** Never held across I/O, so a lookup does not wait for another
          worker's fsync. *)
  fault : Fault.t option;
}

let default_dir = Filename.concat "bench_results" ".journal"

let header = "RATS-JOURNAL 1\n"

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    name

(* Record checksum covers lengths and contents, length-prefixed so the
   (key, payload) split is part of what is verified. *)
let record_checksum key payload =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%d:%s%d:%s" (String.length key) key
          (String.length payload) payload))

let encode_record key payload =
  Printf.sprintf "%s %d %d\n%s%s\n"
    (record_checksum key payload)
    (String.length key) (String.length payload) key payload

(* Parse records from [contents] after the header; returns the records of
   the well-formed prefix in file order and the offset where the first
   damaged (or missing) record starts — everything after it is a torn
   tail. *)
let parse_records contents =
  let len = String.length contents in
  let records = ref [] in
  let rec go offset =
    if offset >= len then offset
    else
      match String.index_from_opt contents offset '\n' with
      | None -> offset
      | Some nl -> (
          let meta = String.sub contents offset (nl - offset) in
          match String.split_on_char ' ' meta with
          | [ checksum; klen; plen ]
            when String.length checksum = 32 -> (
              match (int_of_string_opt klen, int_of_string_opt plen) with
              | Some klen, Some plen
                when klen >= 0 && plen >= 0
                     && nl + 1 + klen + plen + 1 <= len
                     && contents.[nl + klen + plen + 1] = '\n' ->
                  let key = String.sub contents (nl + 1) klen in
                  let payload = String.sub contents (nl + 1 + klen) plen in
                  if record_checksum key payload = checksum then begin
                    records := (key, payload) :: !records;
                    go (nl + 1 + klen + plen + 1)
                  end
                  else offset
              | _ -> offset)
          | _ -> offset)
  in
  let good = go (String.length header) in
  (List.rev !records, good)

let entries_of_records records =
  let entries = Hashtbl.create 256 in
  List.iter
    (fun (key, payload) -> Hashtbl.replace entries key (payload, true))
    records;
  entries

let read_file path = In_channel.with_open_bin path In_channel.input_all

type tail = {
  records : (string * string) list;
  torn : bool;
  bytes : int;
  good_bytes : int;
}

(* Read-only view for monitors tailing a sweep that another process is
   writing: never opens for writing, never truncates, reports rather than
   repairs a torn tail. Reading concurrently with an append is safe — the
   worst case is seeing the append half-written, which parses as a torn
   tail this time and as a record the next. *)
let read_tail path =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | contents
    when String.length contents < String.length header
         || String.sub contents 0 (String.length header) <> header ->
      Error (Printf.sprintf "%s: not a RATS journal (bad header)" path)
  | contents ->
      let records, good = parse_records contents in
      Ok
        {
          records;
          torn = good < String.length contents;
          bytes = String.length contents;
          good_bytes = good;
        }

let path t = t.path

let open_ ?(dir = default_dir) ?fault ~name ~resume () =
  Rats_obs.File.mkdir_p dir;
  let path = Filename.concat dir (sanitize name ^ ".journal") in
  let previous =
    if resume && Sys.file_exists path then
      match read_file path with
      | contents
        when String.length contents >= String.length header
             && String.sub contents 0 (String.length header) = header ->
          Some (parse_records contents)
      | _ | (exception Sys_error _) -> None
    else None
  in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
  in
  let entries, loaded =
    match previous with
    | Some (records, good_offset) ->
        (* Drop the torn tail of the crashed run, keep the good prefix. *)
        Unix.ftruncate fd good_offset;
        ignore (Unix.lseek fd 0 Unix.SEEK_END);
        let entries = entries_of_records records in
        (entries, Hashtbl.length entries)
    | None ->
        Unix.ftruncate fd 0;
        ignore (Unix.single_write_substring fd header 0 (String.length header));
        Unix.fsync fd;
        (Hashtbl.create 256, 0)
  in
  let mutex = Mutex.create () and table = Mutex.create () in
  { path; fd = Some fd; entries; loaded; appended = 0; mutex; table; fault }

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let entry t key = locked t.table (fun () -> Hashtbl.find_opt t.entries key)

let find t key = Option.map fst (entry t key)

let resumes t key = match entry t key with Some (_, r) -> r | None -> false

let loaded t = t.loaded

let appended t = t.appended

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      go (off + Unix.single_write_substring fd s off (n - off))
  in
  go 0

let site = "journal.append"

let append t ~key payload =
  (* Outside the lock: an injected stall must not serialise other
     appenders behind the sleep. *)
  Fault.delay_point t.fault ~site ~key;
  locked t.mutex (fun () ->
      match t.fd with
      | None -> ()
      | Some fd -> (
          try
            (match t.fault with
            | Some f when Fault.fires f Fault.Crash ~site ~key ->
                Rats_obs.Metrics.incr Rats_obs.Instr.fault_injections;
                raise (Unix.Unix_error (Unix.EIO, "journal.append (injected)", t.path))
            | _ -> ());
            write_all fd (encode_record key payload);
            Unix.fsync fd;
            locked t.table (fun () ->
                Hashtbl.replace t.entries key (payload, false));
            t.appended <- t.appended + 1
          with Unix.Unix_error (e, _, _) ->
            Printf.eprintf
              "journal: write to %s failed (%s); resumability disabled for \
               this run\n\
               %!"
              t.path (Unix.error_message e);
            (try Unix.close fd with Unix.Unix_error _ -> ());
            t.fd <- None))

let writable t = locked t.mutex (fun () -> t.fd <> None)

let close t =
  locked t.mutex (fun () ->
      match t.fd with
      | Some fd ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          t.fd <- None
      | None -> ())
