(* Tests for the fault-tolerance layer: deterministic fault injection,
   retry/timeout, failure capture in sweeps, strict mode, the write-ahead
   journal and crash-resumable execution. *)

module Suite = Rats_daggen.Suite
module Cluster = Rats_platform.Cluster
module Runner = Rats_exp.Runner
module Fault = Rats_runtime.Fault
module Retry = Rats_runtime.Retry
module Journal = Rats_runtime.Journal
module Exec = Rats_runtime.Exec

let check = Alcotest.check

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rats_fault_test_%d_%d" (Unix.getpid ()) !counter)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f))
      (Sys.readdir path) (* lint: allow D003 — deletion order is irrelevant *);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

let fault_of_spec spec =
  match Fault.parse spec with
  | Ok t -> t
  | Error reason -> Alcotest.failf "spec %S rejected: %s" spec reason

(* --- fault spec parsing --------------------------------------------------- *)

let test_fault_parse () =
  let ok spec = ignore (fault_of_spec spec) in
  ok "crash=0.1";
  ok "seed=42, crash=0.1, delay=0.02, corrupt=0.2, delay_s=0.1";
  ok "crash@worker=0.5,corrupt@cache.write=1";
  let err spec =
    match Fault.parse spec with
    | Ok _ -> Alcotest.failf "spec %S unexpectedly accepted" spec
    | Error _ -> ()
  in
  err "crash=2";
  err "crash=-0.1";
  err "crash=abc";
  err "seed=1.5";
  err "frobnicate=0.5";
  err "banana";
  err "explode@worker=0.5"

let test_fault_spec_roundtrip () =
  let t = fault_of_spec "seed=7,crash=0.25,corrupt@cache.write=1" in
  let t' = fault_of_spec (Fault.spec t) in
  check Alcotest.string "spec round-trips" (Fault.spec t) (Fault.spec t')

(* --- decision determinism ------------------------------------------------- *)

let decisions t ~site n =
  List.init n (fun i ->
      Fault.fires t Fault.Crash ~site ~key:(Printf.sprintf "task-%d" i))

let test_fault_determinism () =
  let t = fault_of_spec "seed=1,crash=0.5" in
  let a = decisions t ~site:"worker" 200 in
  let b = decisions t ~site:"worker" 200 in
  check Alcotest.(list bool) "same decisions on re-evaluation" a b;
  let hits = List.length (List.filter Fun.id a) in
  check Alcotest.bool
    (Printf.sprintf "plausible rate (%d/200 at p=0.5)" hits)
    true
    (hits > 50 && hits < 150);
  let other = decisions (fault_of_spec "seed=2,crash=0.5") ~site:"worker" 200 in
  check Alcotest.bool "different seed, different decisions" true (a <> other);
  (* Site overrides: probability 0 globally means nothing fires elsewhere. *)
  let scoped = fault_of_spec "seed=1,crash@worker=1" in
  check Alcotest.bool "override site always fires" true
    (Fault.fires scoped Fault.Crash ~site:"worker" ~key:"k");
  check Alcotest.bool "other site never fires" false
    (Fault.fires scoped Fault.Crash ~site:"cache.write" ~key:"k")

(* --- retry ----------------------------------------------------------------- *)

let test_retry_recovers () =
  let policy = { Retry.default with retries = 3; backoff_s = 0. } in
  let outcome =
    Retry.run ~policy ~name:"flaky" (fun ~attempt ->
        if attempt < 3 then failwith "transient" else attempt)
  in
  check Alcotest.int "attempts" 3 outcome.Retry.attempts;
  match outcome.Retry.value with
  | Ok v -> check Alcotest.int "value from third attempt" 3 v
  | Error f -> Alcotest.failf "unexpected failure: %s" (Retry.failure_to_string f)

let test_retry_exhausts () =
  let policy = { Retry.default with retries = 2; backoff_s = 0. } in
  let calls = ref 0 in
  let outcome =
    Retry.run ~policy ~name:"doomed" (fun ~attempt:_ ->
        incr calls;
        failwith "permanent")
  in
  check Alcotest.int "three attempts made" 3 !calls;
  match outcome.Retry.value with
  | Error (Retry.Crashed e) ->
      check Alcotest.int "attempts recorded" 3 e.Retry.attempts;
      check Alcotest.bool "message kept" true
        (String.length e.Retry.message > 0)
  | Error f -> Alcotest.failf "wrong failure: %s" (Retry.failure_to_string f)
  | Ok _ -> Alcotest.fail "expected failure"

let test_retry_timeout () =
  let policy = { Retry.default with timeout_s = Some 0.05 } in
  let outcome =
    Retry.run ~policy ~name:"hang" (fun ~attempt:_ ->
        Thread.delay 2.0;
        0)
  in
  (match outcome.Retry.value with
  | Error (Retry.Timed_out { timeout_s; attempts }) ->
      check (Alcotest.float 1e-9) "timeout recorded" 0.05 timeout_s;
      check Alcotest.int "single attempt" 1 attempts
  | Error f -> Alcotest.failf "wrong failure: %s" (Retry.failure_to_string f)
  | Ok _ -> Alcotest.fail "expected timeout");
  (* A fast task under the same policy is unaffected. *)
  let ok = Retry.run ~policy ~name:"fast" (fun ~attempt:_ -> 41 + 1) in
  check Alcotest.bool "fast task succeeds under timeout" true
    (ok.Retry.value = Ok 42)

(* --- failure capture in sweeps -------------------------------------------- *)

let crashy_exec ?(strict = false) ?(retries = 0) () =
  let fault = fault_of_spec "seed=3,crash@worker=0.4" in
  let retry = { Retry.default with retries; backoff_s = 0. } in
  Exec.make ~jobs:1 ~fault ~retry ~strict ()

let has_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* One keyed unit per input, as the experiment layer runs them. *)
let run_units exec input =
  Exec.map_outcome exec
    ~run:(fun i ->
      Exec.keyed exec
        ~name:(Printf.sprintf "task-%d" i)
        ~key:(string_of_int i) ~encode:string_of_int ~decode:int_of_string_opt
        (fun () -> succ i))
    input

let values outcomes = List.map (fun o -> o.Exec.value) outcomes
let failures outcomes = List.filter Result.is_error (values outcomes)

let test_crash_capture () =
  let input = List.init 50 Fun.id in
  let exec = crashy_exec () in
  let slots = values (run_units exec input) in
  check Alcotest.int "one slot per task" 50 (List.length slots);
  let oks = List.filter Result.is_ok slots in
  let failures = List.filter Result.is_error slots in
  check Alcotest.bool "some tasks failed" true (failures <> []);
  check Alcotest.bool "some tasks survived" true (oks <> []);
  check Alcotest.int "partition covers the sweep" 50
    (List.length oks + List.length failures);
  check Alcotest.int "failure counter matches"
    (List.length failures)
    (Atomic.get exec.Exec.stats.Exec.failed);
  (* Surviving slots hold the right values, in order. *)
  List.iter2
    (fun i slot ->
      match slot with
      | Ok v -> check Alcotest.int (Printf.sprintf "value of task %d" i) (i + 1) v
      | Error f ->
          let s = Retry.failure_to_string f in
          check Alcotest.bool "failure is the injected crash" true
            (has_sub s "Injected");
          check Alcotest.bool "failure names its task" true
            (has_sub s (Printf.sprintf "task-%d#" i)))
    input slots;
  (* Same spec, fresh context: the identical failure partition. *)
  let again = values (run_units (crashy_exec ()) input) in
  check Alcotest.(list bool) "deterministic failure partition"
    (List.map Result.is_ok slots)
    (List.map Result.is_ok again)

let test_crash_retry_recovers_some () =
  let input = List.init 50 Fun.id in
  let no_retry = failures (run_units (crashy_exec ()) input) in
  let with_retry_exec = crashy_exec ~retries:3 () in
  let with_retry = failures (run_units with_retry_exec input) in
  (* The attempt number is part of the fault key, so retries are fresh
     draws: at p=0.4 and 3 retries nearly every task recovers. *)
  check Alcotest.bool
    (Printf.sprintf "retries recover tasks (%d -> %d failures)"
       (List.length no_retry) (List.length with_retry))
    true
    (List.length with_retry < List.length no_retry);
  check Alcotest.bool "retries were counted" true
    (Atomic.get with_retry_exec.Exec.stats.Exec.retried > 0)

let test_strict_fails_fast () =
  let exec = crashy_exec ~strict:true () in
  let raised =
    try
      ignore (run_units exec (List.init 50 Fun.id));
      false
    with Exec.Task_failed (_, _) -> true
  in
  check Alcotest.bool "strict mode raises Task_failed" true raised

let test_no_fault_no_change () =
  let input = List.init 30 Fun.id in
  let exec = Exec.make ~jobs:1 () in
  check Alcotest.(list (result int reject)) "all Ok, plain map semantics"
    (List.map (fun i -> Ok (succ i)) input)
    (List.map (Result.map_error ignore) (values (run_units exec input)));
  check Alcotest.int "no failures" 0 (Atomic.get exec.Exec.stats.Exec.failed)

(* --- journal --------------------------------------------------------------- *)

let test_journal_roundtrip () =
  with_dir (fun dir ->
      let j = Journal.open_ ~dir ~name:"t" ~resume:false () in
      let payload_a = "line one\nline two \xff\x00 binary" in
      Journal.append j ~key:"a" payload_a;
      Journal.append j ~key:"b" "second";
      check Alcotest.int "appended" 2 (Journal.appended j);
      Journal.close j;
      let j2 = Journal.open_ ~dir ~name:"t" ~resume:true () in
      check Alcotest.int "loaded" 2 (Journal.loaded j2);
      check Alcotest.(option string) "payload a" (Some payload_a)
        (Journal.find j2 "a");
      check Alcotest.(option string) "payload b" (Some "second")
        (Journal.find j2 "b");
      check Alcotest.(option string) "unknown key" None (Journal.find j2 "c");
      Journal.close j2;
      (* resume:false discards the previous run. *)
      let j3 = Journal.open_ ~dir ~name:"t" ~resume:false () in
      check Alcotest.int "discarded" 0 (Journal.loaded j3);
      check Alcotest.(option string) "discarded entry" None (Journal.find j3 "a");
      Journal.close j3)

let test_journal_torn_tail () =
  with_dir (fun dir ->
      let j = Journal.open_ ~dir ~name:"torn" ~resume:false () in
      Journal.append j ~key:"a" "kept";
      Journal.append j ~key:"b" "also kept";
      let path = Journal.path j in
      Journal.close j;
      (* Simulate a crash mid-append: a half-written record at the tail. *)
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc "0123456789abcdef 4 100\nxyz";
      close_out oc;
      let j2 = Journal.open_ ~dir ~name:"torn" ~resume:true () in
      check Alcotest.int "well-formed prefix survives" 2 (Journal.loaded j2);
      check Alcotest.(option string) "entry before the tear" (Some "kept")
        (Journal.find j2 "a");
      (* The tear was truncated away; appending works and round-trips. *)
      Journal.append j2 ~key:"c" "after recovery";
      Journal.close j2;
      let j3 = Journal.open_ ~dir ~name:"torn" ~resume:true () in
      check Alcotest.int "recovered + appended" 3 (Journal.loaded j3);
      check Alcotest.(option string) "post-recovery entry"
        (Some "after recovery") (Journal.find j3 "c");
      Journal.close j3)

let test_journal_injected_append_failure () =
  with_dir (fun dir ->
      (* An injected append failure behaves like a real I/O error: the
         journal disables itself (service keeps running, resume guarantee
         degrades) instead of raising into the caller. *)
      let fault = fault_of_spec "seed=1,crash@journal.append=1" in
      let j = Journal.open_ ~dir ~fault ~name:"inj" ~resume:false () in
      check Alcotest.bool "writable when opened" true (Journal.writable j);
      Journal.append j ~key:"a" "lost";
      check Alcotest.bool "disabled after injected failure" false
        (Journal.writable j);
      (* Subsequent appends are silent no-ops on a disabled journal. *)
      Journal.append j ~key:"b" "also lost";
      check Alcotest.int "nothing recorded" 0 (Journal.appended j);
      Journal.close j;
      (* An unfaulted journal in the same dir is unaffected. *)
      let j2 = Journal.open_ ~dir ~name:"inj" ~resume:true () in
      check Alcotest.int "nothing to resume" 0 (Journal.loaded j2);
      check Alcotest.bool "fresh journal writable" true (Journal.writable j2);
      Journal.append j2 ~key:"c" "kept";
      check Alcotest.int "append works" 1 (Journal.appended j2);
      Journal.close j2)

(* --- crash + resume -------------------------------------------------------- *)

(* A sweep killed mid-run leaves a journal of completed configurations;
   resuming replays exactly those and re-executes only the rest, with
   bit-identical output. Simulated by journaling a prefix of the work. *)
let test_resume_bit_identical () =
  with_dir (fun dir ->
      let keys = List.init 10 (fun i -> Printf.sprintf "key-%d" i) in
      let compute k = sqrt (float_of_int (Hashtbl.hash k land 0xFFFF)) in
      let encode = Printf.sprintf "%h" and decode = float_of_string_opt in
      let run_keyed exec k =
        Exec.keyed exec ~name:k ~key:k ~encode ~decode (fun () -> compute k)
      in
      (* Clean reference run, no persistence. *)
      let reference =
        List.map (fun k -> (run_keyed (Exec.make ~jobs:1 ()) k).Exec.value) keys
      in
      (* "Interrupted" run: only the first 4 keys complete before the kill. *)
      let j1 = Journal.open_ ~dir ~name:"sweep" ~resume:false () in
      let exec1 = Exec.make ~jobs:1 ~journal:j1 () in
      List.iteri (fun i k -> if i < 4 then ignore (run_keyed exec1 k)) keys;
      Journal.close j1;
      (* Resumed run over the full key set. *)
      let j2 = Journal.open_ ~dir ~name:"sweep" ~resume:true () in
      check Alcotest.int "journal holds the completed prefix" 4
        (Journal.loaded j2);
      let exec2 = Exec.make ~jobs:1 ~journal:j2 () in
      let outcomes = List.map (run_keyed exec2) keys in
      Journal.close j2;
      check Alcotest.int "resumed count" 4
        (Atomic.get exec2.Exec.stats.Exec.resumed);
      List.iteri
        (fun i o ->
          check Alcotest.bool
            (Printf.sprintf "source of key %d" i)
            true
            (o.Exec.source
            = if i < 4 then Exec.From_journal else Exec.Computed))
        outcomes;
      List.iteri
        (fun i (reference, o) ->
          check Alcotest.bool
            (Printf.sprintf "bit-identical value for key %d" i)
            true
            (o.Exec.value = reference))
        (List.combine reference outcomes))

(* The same property through the real experiment layer: a journaled
   configuration resumes bit-identically to fresh computation. *)
let test_resume_runner_integration () =
  with_dir (fun dir ->
      let cfg_a = { Suite.spec = Suite.Fft { k = 2 }; sample = 0 } in
      let cfg_b = { Suite.spec = Suite.Fft { k = 3 }; sample = 0 } in
      let j1 = Journal.open_ ~dir ~name:"runner" ~resume:false () in
      let exec1 = Exec.make ~jobs:1 ~journal:j1 () in
      let first =
        Runner.run_config_outcome ~exec:exec1 Cluster.chti cfg_a
      in
      Journal.close j1;
      let j2 = Journal.open_ ~dir ~name:"runner" ~resume:true () in
      let exec2 = Exec.make ~jobs:1 ~journal:j2 () in
      let replayed = Runner.run_config_outcome ~exec:exec2 Cluster.chti cfg_a in
      let computed = Runner.run_config_outcome ~exec:exec2 Cluster.chti cfg_b in
      Journal.close j2;
      check Alcotest.bool "replayed from journal" true
        (replayed.Exec.source = Exec.From_journal);
      check Alcotest.bool "missing config computed" true
        (computed.Exec.source = Exec.Computed);
      check Alcotest.bool "bit-identical replay" true
        (replayed.Exec.value = first.Exec.value);
      check Alcotest.int "one resumed" 1
        (Atomic.get exec2.Exec.stats.Exec.resumed))

(* A record this run appended is served from the journal when the cache is
   off, but only a record of the interrupted run counts as resumed. *)
let test_resume_counts_previous_run_only () =
  with_dir (fun dir ->
      let config = { Suite.spec = Suite.Fft { k = 2 }; sample = 0 } in
      let run exec = Runner.run_config_outcome ~exec Cluster.chti config in
      let j1 = Journal.open_ ~dir ~name:"own" ~resume:false () in
      let exec1 = Exec.make ~jobs:1 ~journal:j1 () in
      let first = run exec1 in
      let again = run exec1 in
      Journal.close j1;
      check Alcotest.bool "re-read from this run's journal" true
        (again.Exec.source = Exec.From_journal
        && again.Exec.value = first.Exec.value);
      check Alcotest.int "this run's record is not resumed" 0
        (Atomic.get exec1.Exec.stats.Exec.resumed);
      let j2 = Journal.open_ ~dir ~name:"own" ~resume:true () in
      let exec2 = Exec.make ~jobs:1 ~journal:j2 () in
      let resumed = run exec2 in
      Journal.close j2;
      check Alcotest.bool "replayed after reopening" true
        (resumed.Exec.source = Exec.From_journal
        && resumed.Exec.value = first.Exec.value);
      check Alcotest.int "the interrupted run's record is resumed" 1
        (Atomic.get exec2.Exec.stats.Exec.resumed))

let () =
  Alcotest.run "rats_fault"
    [
      ( "fault",
        [
          Alcotest.test_case "spec parsing" `Quick test_fault_parse;
          Alcotest.test_case "spec round-trip" `Quick test_fault_spec_roundtrip;
          Alcotest.test_case "deterministic decisions" `Quick
            test_fault_determinism;
        ] );
      ( "retry",
        [
          Alcotest.test_case "recovers after transient failures" `Quick
            test_retry_recovers;
          Alcotest.test_case "exhausts into a structured error" `Quick
            test_retry_exhausts;
          Alcotest.test_case "timeout fires on a hung task" `Quick
            test_retry_timeout;
        ] );
      ( "capture",
        [
          Alcotest.test_case "crashes become per-slot failures" `Quick
            test_crash_capture;
          Alcotest.test_case "retries shrink the failure set" `Quick
            test_crash_retry_recovers_some;
          Alcotest.test_case "strict mode fails fast" `Quick
            test_strict_fails_fast;
          Alcotest.test_case "no fault, no change" `Quick test_no_fault_no_change;
        ] );
      ( "journal",
        [
          Alcotest.test_case "round-trip and discard" `Quick
            test_journal_roundtrip;
          Alcotest.test_case "torn tail truncated on resume" `Quick
            test_journal_torn_tail;
          Alcotest.test_case "injected append failure disables journal"
            `Quick test_journal_injected_append_failure;
        ] );
      ( "resume",
        [
          Alcotest.test_case "bit-identical, only missing work re-runs" `Quick
            test_resume_bit_identical;
          Alcotest.test_case "runner integration" `Quick
            test_resume_runner_integration;
          Alcotest.test_case "only the interrupted run's records resume"
            `Quick test_resume_counts_previous_run_only;
        ] );
    ]
