type t = {
  tasks : Task.t array;
  succs : (int * float) list array;  (* insertion order *)
  preds : (int * float) list array;
  order : int array;  (* topological, min id first among ready tasks *)
}

type edge = { src : int; dst : int; bytes : float }

module Builder = struct
  type dag = t

  type t = {
    mutable rev_tasks : Task.t list;
    mutable count : int;
    mutable rev_edges : edge list;
    edge_set : (int * int, unit) Hashtbl.t;
  }

  let create () =
    { rev_tasks = []; count = 0; rev_edges = []; edge_set = Hashtbl.create 64 }

  let add_task b (task : Task.t) =
    if task.Task.id <> b.count then
      invalid_arg
        (Printf.sprintf "Dag.Builder.add_task: expected id %d, got %d" b.count
           task.Task.id);
    b.rev_tasks <- task :: b.rev_tasks;
    b.count <- b.count + 1

  let add_edge b ~src ~dst ~bytes =
    if src < 0 || src >= b.count then invalid_arg "Dag.Builder.add_edge: bad src";
    if dst < 0 || dst >= b.count then invalid_arg "Dag.Builder.add_edge: bad dst";
    if src = dst then invalid_arg "Dag.Builder.add_edge: self loop";
    if bytes < 0. then invalid_arg "Dag.Builder.add_edge: negative weight";
    if not (Float.is_finite bytes) then
      invalid_arg "Dag.Builder.add_edge: non-finite weight";
    if Hashtbl.mem b.edge_set (src, dst) then
      invalid_arg "Dag.Builder.add_edge: duplicate edge";
    Hashtbl.add b.edge_set (src, dst) ();
    b.rev_edges <- { src; dst; bytes } :: b.rev_edges

  let build b =
    let n = b.count in
    let tasks = Array.of_list (List.rev b.rev_tasks) in
    let succs = Array.make n [] and preds = Array.make n [] in
    let edges = List.rev b.rev_edges in
    List.iter
      (fun e ->
        succs.(e.src) <- (e.dst, e.bytes) :: succs.(e.src);
        preds.(e.dst) <- (e.src, e.bytes) :: preds.(e.dst))
      edges;
    Array.iteri (fun i l -> succs.(i) <- List.rev l) succs;
    Array.iteri (fun i l -> preds.(i) <- List.rev l) preds;
    (* Kahn's algorithm with a min-id-first ready set: the order is
       deterministic, and a task never output means a cycle. *)
    let indeg = Array.map List.length preds in
    let module IS = Set.Make (Int) in
    let ready = ref IS.empty in
    Array.iteri (fun i d -> if d = 0 then ready := IS.add i !ready) indeg;
    let order = Array.make n 0 in
    let seen = ref 0 in
    while not (IS.is_empty !ready) do
      let u = IS.min_elt !ready in
      ready := IS.remove u !ready;
      order.(!seen) <- u;
      incr seen;
      List.iter
        (fun (v, _) ->
          indeg.(v) <- indeg.(v) - 1;
          if indeg.(v) = 0 then ready := IS.add v !ready)
        succs.(u)
    done;
    if !seen <> n then failwith "Dag.Builder.build: graph contains a cycle";
    { tasks; succs; preds; order }
end

let n_tasks g = Array.length g.tasks
let n_edges g = Array.fold_left (fun acc l -> acc + List.length l) 0 g.succs
let task g i = g.tasks.(i)
let tasks g = Array.copy g.tasks
let succs g i = g.succs.(i)
let preds g i = g.preds.(i)

let edges g =
  let acc = ref [] in
  for i = n_tasks g - 1 downto 0 do
    List.iter (fun (dst, bytes) -> acc := { src = i; dst; bytes } :: !acc)
      (List.rev g.succs.(i))
  done;
  !acc

let edge_bytes g ~src ~dst = List.assoc_opt dst g.succs.(src)

let entries g =
  let acc = ref [] in
  for i = n_tasks g - 1 downto 0 do
    if g.preds.(i) = [] then acc := i :: !acc
  done;
  !acc

let exits g =
  let acc = ref [] in
  for i = n_tasks g - 1 downto 0 do
    if g.succs.(i) = [] then acc := i :: !acc
  done;
  !acc

let ensure_single_entry_exit g =
  let ents = entries g and exs = exits g in
  match (ents, exs) with
  | [ _ ], [ _ ] -> g
  | _ ->
      let n = n_tasks g in
      let b = Builder.create () in
      Array.iter (fun t -> Builder.add_task b t) g.tasks;
      let need_entry = List.length ents > 1 in
      let need_exit = List.length exs > 1 in
      let entry_id = if need_entry then n else -1 in
      let exit_id = if need_exit then (if need_entry then n + 1 else n) else -1 in
      if need_entry then
        Builder.add_task b (Task.virtual_task ~id:entry_id ~name:"entry");
      if need_exit then
        Builder.add_task b (Task.virtual_task ~id:exit_id ~name:"exit");
      Array.iteri
        (fun i l ->
          List.iter (fun (dst, bytes) -> Builder.add_edge b ~src:i ~dst ~bytes) l)
        g.succs;
      if need_entry then
        List.iter (fun e -> Builder.add_edge b ~src:entry_id ~dst:e ~bytes:0.) ents;
      if need_exit then
        List.iter (fun x -> Builder.add_edge b ~src:x ~dst:exit_id ~bytes:0.) exs;
      Builder.build b

let topological_order g = Array.copy g.order

let depths g =
  let d = Array.make (n_tasks g) 0 in
  Array.iter
    (fun u ->
      List.iter (fun (v, _) -> if d.(u) + 1 > d.(v) then d.(v) <- d.(u) + 1)
        g.succs.(u))
    g.order;
  d

let level_groups g =
  let d = depths g in
  let n_levels = 1 + Array.fold_left max 0 d in
  let groups = Array.make n_levels [] in
  for i = n_tasks g - 1 downto 0 do
    groups.(d.(i)) <- i :: groups.(d.(i))
  done;
  groups

let bottom_levels g ~task_cost ~edge_cost =
  let n = n_tasks g in
  let bl = Array.make n 0. in
  for k = n - 1 downto 0 do
    let u = g.order.(k) in
    let best =
      List.fold_left
        (fun acc (v, bytes) -> Float.max acc (edge_cost u v bytes +. bl.(v)))
        0. g.succs.(u)
    in
    bl.(u) <- task_cost u +. best
  done;
  bl

let top_levels g ~task_cost ~edge_cost =
  let tl = Array.make (n_tasks g) 0. in
  Array.iter
    (fun u ->
      List.iter
        (fun (v, bytes) ->
          let candidate = tl.(u) +. task_cost u +. edge_cost u v bytes in
          if candidate > tl.(v) then tl.(v) <- candidate)
        g.succs.(u))
    g.order;
  tl

let critical_path g ~task_cost ~edge_cost =
  let bl = bottom_levels g ~task_cost ~edge_cost in
  (* Start from the entry with maximal bottom level and greedily follow the
     successor realizing it. *)
  let start =
    List.fold_left
      (fun acc e -> match acc with
        | None -> Some e
        | Some best -> if bl.(e) > bl.(best) then Some e else acc)
      None (entries g)
  in
  match start with
  | None -> ([], 0.)
  | Some s ->
      let rec follow u acc =
        let nexts = succs g u in
        if nexts = [] then List.rev (u :: acc)
        else begin
          let eps = 1e-9 *. (1. +. Float.abs bl.(u)) in
          let next =
            List.find
              (fun (v, bytes) ->
                Float.abs (bl.(u) -. (task_cost u +. edge_cost u v bytes +. bl.(v)))
                <= eps)
              nexts
          in
          follow (fst next) (u :: acc)
        end
      in
      (follow s [], bl.(s))

let total_cost g ~task_cost =
  let acc = ref 0. in
  for i = 0 to n_tasks g - 1 do
    acc := !acc +. task_cost i
  done;
  !acc

let map_tasks g ~f =
  let tasks = Array.map f g.tasks in
  Array.iteri
    (fun i t ->
      if t.Task.id <> i then invalid_arg "Dag.map_tasks: f changed a task id")
    tasks;
  { g with tasks }

let pp_dot ppf g =
  Format.fprintf ppf "digraph dag {@.  rankdir=TB;@.";
  Array.iteri
    (fun i t ->
      Format.fprintf ppf "  n%d [label=\"%s\\n%.0fMB %.2gGflop\"];@." i
        t.Task.name
        (t.Task.data_elements *. 8. /. 1e6)
        (t.Task.flop /. 1e9))
    g.tasks;
  Array.iteri
    (fun i l ->
      List.iter
        (fun (j, bytes) ->
          Format.fprintf ppf "  n%d -> n%d [label=\"%.0fMB\"];@." i j
            (bytes /. 1e6))
        l)
    g.succs;
  Format.fprintf ppf "}@."

let pp_stats ppf g =
  let groups = level_groups g in
  let max_width = Array.fold_left (fun acc l -> max acc (List.length l)) 0 groups in
  Format.fprintf ppf "dag: %d tasks, %d edges, %d levels, max width %d"
    (n_tasks g) (n_edges g) (Array.length groups) max_width
