module Metrics = Rats_obs.Metrics
module Instr = Rats_obs.Instr

(* A reporter counts its own completions; the cache and fault counts are
   the deltas of the registry's [rats_cache_hits_total] and
   [rats_exec_{failed,retried,resumed}_total] since its creation, so they
   restart at zero for every sweep and can never disagree with the
   registry. The mutex serialises printing only. *)
type t = {
  label : string;
  total : int;
  enabled : bool;
  mutex : Mutex.t;
  start : float;
  finished : int Atomic.t;
  base_hits : int;
  base_failed : int;
  base_retried : int;
  base_resumed : int;
  mutable last_print : float;
}

let min_print_interval = 0.5

let create ?(enabled = true) ~label ~total () =
  let now = Instr.now_s () in
  {
    label;
    total;
    enabled;
    mutex = Mutex.create ();
    start = now;
    finished = Atomic.make 0;
    base_hits = Metrics.counter_value Instr.cache_hits;
    base_failed = Metrics.counter_value Instr.exec_failed;
    base_retried = Metrics.counter_value Instr.exec_retried;
    base_resumed = Metrics.counter_value Instr.exec_resumed;
    last_print = now;
  }

let completed t = Atomic.get t.finished
let cache_hits t = Metrics.counter_value Instr.cache_hits - t.base_hits
let failed t = Metrics.counter_value Instr.exec_failed - t.base_failed
let retried t = Metrics.counter_value Instr.exec_retried - t.base_retried
let resumed t = Metrics.counter_value Instr.exec_resumed - t.base_resumed

let rate t now =
  let dt = now -. t.start in
  if dt <= 0. then 0. else float_of_int (completed t) /. dt

(* The fault counters only appear once nonzero, so a clean run prints the
   exact same lines it always did. *)
let fault_suffix t =
  let part name n = if n = 0 then "" else Printf.sprintf "  %s %d" name n in
  part "resumed" (resumed t) ^ part "failed" (failed t)
  ^ part "retried" (retried t)

let hit_pct t =
  let c = completed t in
  if c = 0 then 0 else 100 * cache_hits t / c

let print_line t now =
  let r = rate t now in
  let eta =
    if r <= 0. then "?"
    else Printf.sprintf "%.0fs" (float_of_int (t.total - completed t) /. r)
  in
  Printf.eprintf "[%s] %d/%d  %.1f cfg/s  eta %s  cache-hit %d%%%s\n%!" t.label
    (completed t) t.total r eta (hit_pct t) (fault_suffix t)

let step t =
  if t.enabled then begin
    Atomic.incr t.finished;
    Mutex.lock t.mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mutex)
      (fun () ->
        let now = Instr.now_s () in
        if now -. t.last_print >= min_print_interval then begin
          t.last_print <- now;
          print_line t now
        end)
  end

let finish t =
  if t.enabled then begin
    Mutex.lock t.mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mutex)
      (fun () ->
        let now = Instr.now_s () in
        Printf.eprintf
          "[%s] %d/%d done in %.1fs  (%.1f cfg/s, cache-hit %d%%%s)\n%!"
          t.label (completed t) t.total (now -. t.start) (rate t now)
          (hit_pct t) (fault_suffix t))
  end
