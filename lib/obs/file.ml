let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_atomic path contents =
  (* 0o666 under the umask: the permissions [open_out] gives a file. *)
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o666
      ~temp_dir:(Filename.dirname path) (Filename.basename path) ".tmp"
  in
  try
    output_string oc contents;
    close_out oc;
    Sys.rename tmp path
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  (* Failing to open names the file already; failing to read does not. *)
  | exception Sys_error msg when String.starts_with ~prefix:path msg ->
      Error msg
  | exception Sys_error msg -> Error (path ^ ": " ^ msg)
  | contents ->
      Result.map_error (fun msg -> path ^ ": " ^ msg) (Json.parse contents)
