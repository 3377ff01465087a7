(* What a benchmark workload is: seeded set-up, then repeatable passes.

   A pass is one complete, fixed unit of work over the set-up inputs (a
   sweep, a set of service arms, a batch of plan requests). Passes over the
   same inputs must produce the same output digest; the harness repeats
   them until the run's time budget is spent, so every pass reports on
   exactly the same input mix. *)

type pass = {
  ops : int;  (** Ops attempted. *)
  failed : int;
      (** Ops that raised, failed in [Exec], got an [Err] reply, were
          refused at submission, or broke an output invariant. An
          admission reject or expiry is an outcome, not a failure. *)
  latencies : float array;  (** Seconds, one per completed op. *)
  wall_s : float;  (** The pass's measured section (checks excluded). *)
  digest : string;  (** MD5 hex of the pass's output (CSV, event log, replies). *)
  errors : string list;  (** Failed output checks. *)
  facts : (string * float) list;
      (** Deterministic results (simulated times, ratios): equal on every
          run of the same seed. *)
  counts : (string * float) list;
      (** Per-layer work the workload counts itself (tasks generated, bytes
          framed, journal appends...). *)
}

type 'i spec = {
  name : string;
  jobs : int;  (** Domains working during a pass. *)
  setup : seed:int -> 'i;
  pass : 'i -> scratch:string -> tracer:Rats_obs.Trace.t option -> pass;
}

type t = W : 'i spec -> t

let name (W s) = s.name

let now = Rats_obs.Instr.now_s

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let md5_hex s = Digest.to_hex (Digest.string s)

let finite_pos x = Float.is_finite x && x > 0.

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      let entries = Sys.readdir path in (* lint: allow D003 — deletion order does not matter *)
      Array.iter (fun e -> rm_rf (Filename.concat path e)) entries;
      Unix.rmdir path
  | _ -> Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all
