module Procset = Rats_util.Procset
module Cluster = Rats_platform.Cluster
module Link = Rats_platform.Link
module Topology = Rats_platform.Topology

type transfer = { src : int; dst : int; bytes : float }

let plan ?(optimize_placement = true) ~sender ~receiver ~bytes () =
  if Procset.is_empty sender || Procset.is_empty receiver then
    invalid_arg "Redistribution.plan: empty processor set";
  if bytes <= 0. then []
  else if Procset.equal sender receiver then
    (* Identical sets: by assumption the redistribution is free; represent it
       as a single local transfer so observers still see the data motion. *)
    [ { src = Procset.nth sender 0; dst = Procset.nth sender 0; bytes } ]
  else begin
    let p = Procset.size sender and q = Procset.size receiver in
    let entries = Block.comm_matrix ~amount:bytes ~senders:p ~receivers:q in
    let place =
      if optimize_placement then Placement.receiver_ranks ~sender ~receiver ~bytes
      else Array.of_list (Procset.to_list receiver)
    in
    List.map
      (fun (i, j, amount) ->
        { src = Procset.nth sender i; dst = place.(j); bytes = amount })
      entries
  end

let remote_bytes transfers =
  List.fold_left
    (fun acc t -> if t.src <> t.dst then acc +. t.bytes else acc)
    0. transfers

let local_bytes transfers =
  List.fold_left
    (fun acc t -> if t.src = t.dst then acc +. t.bytes else acc)
    0. transfers

let estimate cluster transfers =
  let n_links = Cluster.n_links cluster in
  let load = Array.make n_links 0. in
  let max_latency = ref 0. in
  let any_remote = ref false in
  List.iter
    (fun t ->
      if t.src <> t.dst && t.bytes > 0. then begin
        any_remote := true;
        let route = Cluster.route cluster ~src:t.src ~dst:t.dst in
        Array.iter (fun l -> load.(l) <- load.(l) +. t.bytes) route;
        let lat = Cluster.one_way_latency cluster ~route in
        if lat > !max_latency then max_latency := lat
      end)
    transfers;
  if not !any_remote then 0.
  else begin
    let drain = ref 0. in
    for l = 0 to n_links - 1 do
      if load.(l) > 0. then begin
        let t = load.(l) /. (Cluster.link cluster l).Link.bandwidth in
        if t > !drain then drain := t
      end
    done;
    !max_latency +. !drain
  end

(* Whether two sorted processor sets share no member. *)
let disjoint a b =
  let na = Procset.size a and nb = Procset.size b in
  let rec go i j =
    i >= na || j >= nb
    ||
    let x = Procset.nth a i and y = Procset.nth b j in
    if x < y then go (i + 1) j else if y < x then go i (j + 1) else false
  in
  go 0 0

(* [estimate] of [plan] without building either. Every link a remote
   transfer crosses gets one load accumulator: a sender rank's node link,
   the node link of a receiver rank outside the sender set, or a cabinet
   uplink. Adding each transfer to its accumulators in plan order gives
   every link the same left-to-right sum as [estimate]. The drain and
   latency maxima do not depend on order, every node link is the
   cluster's [node_link] and every uplink its [uplink], so one route of
   each kind (same cabinet, across cabinets) prices the latency. *)
let estimate_between cluster ~sender ~receiver ~bytes =
  if bytes <= 0. || Procset.equal sender receiver then 0.
  else begin
    let p = Procset.size sender and q = Procset.size receiver in
    if p = 0 || q = 0 then
      invalid_arg "Redistribution.estimate_between: empty processor set";
    let topo = cluster.Cluster.topology in
    (* Receiver rank j's processor, and its accumulator: its own, p + j,
       or a sender rank's when that processor also sends. *)
    let place, slot =
      if disjoint sender receiver then (Procset.to_array receiver, None)
      else begin
        let place = Placement.receiver_ranks ~sender ~receiver ~bytes in
        ( place,
          Some
            (Array.mapi
               (fun j proc ->
                 match Procset.rank proc sender with Some i -> i | None -> p + j)
               place) )
      end
    in
    let uplinks = p + q in
    let load = Array.make (uplinks + Topology.n_uplinks topo) 0. in
    let unit = Block.unit_amount ~amount:bytes ~senders:p ~receivers:q in
    (* One remote transfer of each route kind, as (src, dst) node pairs. *)
    let near = [| -1; -1 |] and far = [| -1; -1 |] in
    Block.iter_comm ~senders:p ~receivers:q (fun i j units ->
        let amount = unit *. float_of_int units in
        let k = match slot with None -> p + j | Some slot -> slot.(j) in
        if k <> i && amount > 0. then begin
          load.(i) <- load.(i) +. amount;
          load.(k) <- load.(k) +. amount;
          let src = Procset.nth sender i and dst = place.(j) in
          let cs = Topology.cabinet_of topo src
          and cd = Topology.cabinet_of topo dst in
          let kind = if cs = cd then near else far in
          kind.(0) <- src;
          kind.(1) <- dst;
          if cs <> cd then begin
            load.(uplinks + cs) <- load.(uplinks + cs) +. amount;
            load.(uplinks + cd) <- load.(uplinks + cd) +. amount
          end
        end);
    if near.(0) < 0 && far.(0) < 0 then 0.
    else begin
      let max_latency = ref 0. in
      List.iter
        (fun kind ->
          if kind.(0) >= 0 then begin
            let route = Cluster.route cluster ~src:kind.(0) ~dst:kind.(1) in
            let lat = Cluster.one_way_latency cluster ~route in
            if lat > !max_latency then max_latency := lat
          end)
        [ near; far ];
      let drain = ref 0. in
      for k = 0 to Array.length load - 1 do
        if load.(k) > 0. then begin
          let link =
            if k < uplinks then cluster.Cluster.node_link else cluster.Cluster.uplink
          in
          let t = load.(k) /. link.Link.bandwidth in
          if t > !drain then drain := t
        end
      done;
      !max_latency +. !drain
    end
  end
