module Procset = Rats_util.Procset
module Dag = Rats_dag.Dag
module Redistribution = Rats_redist.Redistribution

type t = {
  problem : Problem.t;
  alloc : int array;
  avail : float array;
  entries : Schedule.entry option array;
  mutable next_seq : int;
  all_procs : Procset.t;
  mutable priced : (int * Procset.t * (float * float)) list;
      (* Estimates since the last commit, by task and physical set: only a
         commit changes what [estimate] reads. *)
}

let create problem ~alloc =
  if Array.length alloc <> Problem.n_tasks problem then
    invalid_arg "Mapping.create: allocation size mismatch";
  Array.iteri
    (fun i np ->
      if np < 1 || np > Problem.n_procs problem then
        invalid_arg
          (Printf.sprintf "Mapping.create: allocation %d of task %d invalid" np i))
    alloc;
  {
    problem;
    alloc = Array.copy alloc;
    avail = Array.make (Problem.n_procs problem) 0.;
    entries = Array.make (Problem.n_tasks problem) None;
    next_seq = 0;
    all_procs = Rats_platform.Cluster.all_procs (Problem.cluster problem);
    priced = [];
  }

let problem t = t.problem
let alloc t i = t.alloc.(i)

let is_mapped t i = t.entries.(i) <> None

let entry t i =
  match t.entries.(i) with
  | Some e -> e
  | None -> invalid_arg "Mapping.entry: task not mapped"

(* [np] processors minimizing (availability, index), drawn from [pool]
   minus [exclude]. The order is total (indices differ), so a quickselect
   that gathers the [np] smallest candidates in front picks exactly the
   set a full sort would. *)
let earliest_from t ~pool ~exclude np =
  let cands = Array.make (Procset.size pool) 0 and m = ref 0 in
  Procset.iter
    (fun q ->
      if not (Procset.mem q exclude) then begin
        cands.(!m) <- q;
        incr m
      end)
    pool;
  let k = Int.min np !m in
  let before a b =
    match Float.compare t.avail.(a) t.avail.(b) with
    | 0 -> a < b
    | c -> c < 0
  in
  (* Invariant: cands.(0 .. lo-1) precede cands.(lo .. hi), which precede
     cands.(hi+1 ..), and lo <= k - 1 <= hi. *)
  let lo = ref 0 and hi = ref (!m - 1) in
  while !lo < !hi do
    let pivot = cands.((!lo + !hi) / 2) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while before cands.(!i) pivot do incr i done;
      while before pivot cands.(!j) do decr j done;
      if !i <= !j then begin
        let x = cands.(!i) in
        cands.(!i) <- cands.(!j);
        cands.(!j) <- x;
        incr i;
        decr j
      end
    done;
    if k - 1 <= !j then hi := !j
    else if k - 1 >= !i then lo := !i
    else lo := !hi
  done;
  Procset.of_array (Array.sub cands 0 k)

let earliest_set t np =
  if np < 1 || np > Problem.n_procs t.problem then
    invalid_arg "Mapping.earliest_set: invalid count";
  earliest_from t ~pool:t.all_procs ~exclude:Procset.empty np

let from_pred_set t ~pred_procs np =
  if np < 1 || np > Problem.n_procs t.problem then
    invalid_arg "Mapping.from_pred_set: invalid count";
  let sz = Procset.size pred_procs in
  if sz = np then pred_procs
  else if sz > np then earliest_from t ~pool:pred_procs ~exclude:Procset.empty np
  else
    Procset.union pred_procs
      (earliest_from t ~pool:t.all_procs ~exclude:pred_procs (np - sz))

let price t i set =
  let dag = Problem.dag t.problem in
  let cluster = Problem.cluster t.problem in
  let data_ready =
    List.fold_left
      (fun acc (pred, bytes) ->
        match t.entries.(pred) with
        | None -> invalid_arg "Mapping.estimate: predecessor not mapped"
        | Some pe ->
            let redist =
              Redistribution.estimate_between cluster ~sender:pe.Schedule.procs
                ~receiver:set ~bytes
            in
            Float.max acc (pe.Schedule.est_finish +. redist))
      0. (Dag.preds dag i)
  in
  let proc_ready = Procset.fold (fun q acc -> Float.max acc t.avail.(q)) set 0. in
  let start = Float.max data_ready proc_ready in
  (start, start +. Problem.task_time t.problem i ~procs:(Procset.size set))

let estimate t i set =
  match List.find_opt (fun (j, s, _) -> j = i && s == set) t.priced with
  | Some (_, _, e) -> e
  | None ->
      let e = price t i set in
      t.priced <- (i, set, e) :: t.priced;
      e

let baseline_choice t i = earliest_set t t.alloc.(i)

let commit t i set =
  if is_mapped t i then invalid_arg "Mapping.commit: task already mapped";
  let est_start, est_finish = estimate t i set in
  let e =
    {
      Schedule.task = i;
      procs = set;
      est_start;
      est_finish;
      seq = t.next_seq;
    }
  in
  t.next_seq <- t.next_seq + 1;
  t.priced <- [];
  t.entries.(i) <- Some e;
  t.alloc.(i) <- Procset.size set;
  Procset.iter (fun q -> t.avail.(q) <- Float.max t.avail.(q) est_finish) set;
  e

let to_schedule t =
  let entries =
    Array.mapi
      (fun i -> function
        | Some e -> e
        | None ->
            invalid_arg
              (Printf.sprintf "Mapping.to_schedule: task %d unmapped" i))
      t.entries
  in
  Schedule.make t.problem entries
