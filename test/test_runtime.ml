(* Tests for rats_runtime: pool determinism, cache round-trip/keying/
   corruption recovery, and the qcheck order-preservation property. *)

module Suite = Rats_daggen.Suite
module Cluster = Rats_platform.Cluster
module Runner = Rats_exp.Runner
module Pool = Rats_runtime.Pool
module Cache = Rats_runtime.Cache

let check = Alcotest.check

(* A private cache directory per test run; tests must not touch the real
   bench_results/.cache. *)
let fresh_cache_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rats_cache_test_%d_%d" (Unix.getpid ()) !counter)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f))
      (Sys.readdir path) (* lint: allow D003 — deletion order is irrelevant *);
    Sys.rmdir path
  end
  else Sys.remove path

let with_cache f =
  let dir = fresh_cache_dir () in
  let cache = Cache.create ~dir () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f cache)

(* --- pool ---------------------------------------------------------------- *)

(* The acceptance bar of the subsystem: a 20-configuration suite prefix
   yields the same result list — same order, bit-identical floats — for any
   worker count. *)
let test_pool_determinism () =
  let configs = List.filteri (fun i _ -> i < 20) (Suite.all Suite.Smoke) in
  let run jobs = Pool.map ~jobs (Runner.run_config Cluster.chti) configs in
  let serial = run 1 in
  List.iter
    (fun jobs ->
      let parallel = run jobs in
      check Alcotest.int
        (Printf.sprintf "length at jobs=%d" jobs)
        (List.length serial) (List.length parallel);
      List.iter2
        (fun (a : Runner.result) (b : Runner.result) ->
          check Alcotest.bool
            (Printf.sprintf "identical result at jobs=%d for %s" jobs
               (Suite.name a.Runner.config))
            true (a = b))
        serial parallel)
    [ 2; 4; 7 ]

let test_pool_exception () =
  Alcotest.check_raises "exception propagates" Exit (fun () ->
      ignore
        (Pool.map ~jobs:4
           (fun i -> if i = 17 then raise Exit else i)
           (List.init 40 Fun.id)))

let test_pool_empty_and_mapi () =
  check Alcotest.(list int) "empty input" [] (Pool.map ~jobs:4 succ []);
  check
    Alcotest.(list int)
    "mapi indices" [ 10; 12; 14 ]
    (Pool.mapi ~jobs:3 (fun i x -> i + x) [ 10; 11; 12 ])

(* --- cache --------------------------------------------------------------- *)

let test_cache_roundtrip () =
  with_cache (fun cache ->
      let key = Cache.key [ "test"; "roundtrip" ] in
      check Alcotest.(option string) "miss before store" None
        (Cache.find cache key);
      Cache.store cache key "payload with\nnewline and \xff bytes";
      check
        Alcotest.(option string)
        "hit after store"
        (Some "payload with\nnewline and \xff bytes")
        (Cache.find cache key);
      check Alcotest.int "one hit" 1 (Cache.hits cache);
      check Alcotest.int "one miss" 1 (Cache.misses cache))

let test_cache_key_sensitivity () =
  let base = [ "runner"; "cluster-sig"; "fft-k8-s0"; "0x1p-1" ] in
  let k = Cache.key base in
  List.iter
    (fun (label, parts) ->
      check Alcotest.bool label true (k <> Cache.key parts))
    [
      ("parameter change", [ "runner"; "cluster-sig"; "fft-k8-s0"; "0x1p-2" ]);
      ("config change", [ "runner"; "cluster-sig"; "fft-k4-s0"; "0x1p-1" ]);
      ("cluster change", [ "runner"; "other-sig"; "fft-k8-s0"; "0x1p-1" ]);
      ("part-boundary shift", [ "runner"; "cluster-sigf"; "ft-k8-s0"; "0x1p-1" ]);
    ]

let test_cache_corruption_recovery () =
  with_cache (fun cache ->
      let key = Cache.key [ "test"; "corruption" ] in
      Cache.store cache key "precious result";
      let file = Cache.path cache key in
      (* Tamper with the payload behind the checksum's back. *)
      let oc = open_out_bin file in
      output_string oc "garbage that is long enough to parse as an entry";
      close_out oc;
      check Alcotest.(option string) "corrupted entry is a miss" None
        (Cache.find cache key);
      check Alcotest.bool "corrupted entry deleted" false
        (Sys.file_exists file);
      (* The slot is usable again after recovery. *)
      Cache.store cache key "recomputed";
      check
        Alcotest.(option string)
        "recovered" (Some "recomputed") (Cache.find cache key))

(* --- cache error paths (driven by fault injection) ----------------------- *)

let fault_of_spec spec =
  match Rats_runtime.Fault.parse spec with
  | Ok t -> t
  | Error reason -> Alcotest.failf "spec %S rejected: %s" spec reason

(* A write fault tears the payload behind the checksum's back; the reader
   must detect it, quarantine the file and recover on the next store. *)
let test_cache_corrupt_write_quarantine () =
  let dir = fresh_cache_dir () in
  let fault = fault_of_spec "corrupt@cache.write=1" in
  let cache = Cache.create ~fault ~dir () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let key = Cache.key [ "test"; "torn-write" ] in
      Cache.store cache key "a payload long enough to be torn in half";
      check Alcotest.(option string) "torn entry is a miss" None
        (Cache.find cache key);
      check Alcotest.int "torn entry quarantined" 1 (Cache.quarantined cache);
      check Alcotest.bool "quarantine dir holds the evidence" true
        (Sys.file_exists (Cache.quarantine_dir cache)
        && Sys.readdir (Cache.quarantine_dir cache) <> [||] (* lint: allow D003 — only emptiness is checked *));
      (* A clean cache on the same directory can reuse the slot. *)
      let clean = Cache.create ~dir () in
      Cache.store clean key "recomputed";
      check
        Alcotest.(option string)
        "slot usable after quarantine" (Some "recomputed")
        (Cache.find clean key))

(* A crash mid-write (simulated ENOSPC) must leave no entry at all — the
   temp-file-plus-rename protocol never exposes a half-written file. *)
let test_cache_crash_write_is_noop () =
  let dir = fresh_cache_dir () in
  let fault = fault_of_spec "crash@cache.write=1" in
  let cache = Cache.create ~fault ~dir () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let key = Cache.key [ "test"; "enospc" ] in
      Cache.store cache key "never makes it to disk";
      check Alcotest.bool "no entry file" false
        (Sys.file_exists (Cache.path cache key));
      check Alcotest.(option string) "store degraded to a no-op" None
        (Cache.find cache key);
      check Alcotest.bool "no temp litter" true
        (Array.for_all
           (fun f -> f = "quarantine")
           (Sys.readdir dir) (* lint: allow D003 — order-insensitive for_all *)))

(* A cache directory that cannot be created (nested under a regular file —
   chmod is useless when tests run as root) degrades to misses and no-op
   stores instead of raising. *)
let test_cache_unwritable_dir () =
  let blocker = Filename.temp_file "rats_cache_blocker" "" in
  Fun.protect ~finally:(fun () -> Sys.remove blocker)
    (fun () ->
      let cache = Cache.create ~dir:(Filename.concat blocker "cache") () in
      let key = Cache.key [ "test"; "unwritable" ] in
      Cache.store cache key "dropped";
      check Alcotest.(option string) "store was a no-op" None
        (Cache.find cache key);
      check Alcotest.int "lookups count as misses" 1 (Cache.misses cache))

let test_cache_runner_integration () =
  with_cache (fun cache ->
      let config = { Suite.spec = Suite.Fft { k = 2 }; sample = 0 } in
      let fresh = Runner.run_config Cluster.chti config in
      let stored = Runner.run_config ~cache Cluster.chti config in
      let replayed = Runner.run_config ~cache Cluster.chti config in
      check Alcotest.bool "cached result identical" true (fresh = stored);
      check Alcotest.bool "replayed result identical" true (fresh = replayed);
      check Alcotest.int "second lookup hit" 1 (Cache.hits cache))

(* The unit of the suite path: one configuration costs one lookup, one
   store and one journal append. *)
let test_runner_one_record () =
  with_cache (fun cache ->
      let dir = fresh_cache_dir () in
      Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
        (fun () ->
          let journal =
            Rats_runtime.Journal.open_ ~dir ~name:"one" ~resume:false ()
          in
          let exec = Rats_runtime.Exec.make ~jobs:1 ~cache ~journal () in
          let config = { Suite.spec = Suite.Fft { k = 2 }; sample = 0 } in
          ignore (Runner.run_config_outcome ~exec Cluster.chti config);
          Rats_runtime.Journal.close journal;
          check Alcotest.int "one lookup" 1 (Cache.hits cache + Cache.misses cache);
          let files = Sys.readdir (Filename.dirname (Cache.path cache "k")) in
          Array.sort String.compare files;
          check Alcotest.int "one store" 1 (Array.length files);
          check Alcotest.int "one journal append" 1
            (Rats_runtime.Journal.appended journal)))

(* --- qcheck -------------------------------------------------------------- *)

let prop_pool_map_order =
  QCheck.Test.make ~count:100 ~name:"Pool.map preserves order for arbitrary f"
    QCheck.(
      triple (fun1 Observable.int small_int) (small_list int) (int_range 1 8))
    (fun (f, l, jobs) ->
      Pool.map ~jobs (QCheck.Fn.apply f) l = List.map (QCheck.Fn.apply f) l)

let () =
  Alcotest.run "rats_runtime"
    [
      ( "pool",
        [
          Alcotest.test_case "determinism vs serial (20-config suite)" `Slow
            test_pool_determinism;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception;
          Alcotest.test_case "empty input and mapi" `Quick
            test_pool_empty_and_mapi;
        ] );
      ( "cache",
        [
          Alcotest.test_case "round-trip" `Quick test_cache_roundtrip;
          Alcotest.test_case "key sensitivity" `Quick
            test_cache_key_sensitivity;
          Alcotest.test_case "corrupted entry recovery" `Quick
            test_cache_corruption_recovery;
          Alcotest.test_case "torn write quarantined" `Quick
            test_cache_corrupt_write_quarantine;
          Alcotest.test_case "crashed write is a no-op" `Quick
            test_cache_crash_write_is_noop;
          Alcotest.test_case "unwritable directory degrades" `Quick
            test_cache_unwritable_dir;
          Alcotest.test_case "runner integration" `Quick
            test_cache_runner_integration;
          Alcotest.test_case "one record per configuration" `Quick
            test_runner_one_record;
        ] );
      ( "properties",
        [ Rats_test_support.Seeded.to_alcotest prop_pool_map_order ] );
    ]
