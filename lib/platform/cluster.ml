module Units = Rats_util.Units
module Procset = Rats_util.Procset

type t = {
  name : string;
  topology : Topology.t;
  speed : float;
  node_link : Link.t;
  uplink : Link.t;
  tcp_wmax : float;
}

let make ~name ~topology ~speed_gflops ?(node_link = Link.gigabit)
    ?(uplink = Link.gigabit) ?(tcp_wmax = 4. *. 1048576.) () =
  (* Written so that NaN fails them. *)
  if not (speed_gflops > 0.) then invalid_arg "Cluster.make: non-positive speed";
  if not (tcp_wmax > 0.) then invalid_arg "Cluster.make: non-positive tcp_wmax";
  { name; topology; speed = Units.gflops speed_gflops; node_link; uplink; tcp_wmax }

let n_procs c = Topology.n_nodes c.topology
let n_links c = n_procs c + Topology.n_uplinks c.topology

let link c i =
  if i < 0 || i >= n_links c then invalid_arg "Cluster.link: out of range";
  if i < n_procs c then c.node_link else c.uplink

let route c ~src ~dst =
  let p = n_procs c in
  if src < 0 || src >= p || dst < 0 || dst >= p then
    invalid_arg "Cluster.route: node out of range";
  if src = dst then [||]
  else if Topology.same_cabinet c.topology src dst then [| src; dst |]
  else
    let cs = Topology.cabinet_of c.topology src
    and cd = Topology.cabinet_of c.topology dst in
    [| src; p + cs; p + cd; dst |]

let one_way_latency c ~route =
  Array.fold_left (fun acc l -> acc +. (link c l).Link.latency) 0. route

let flow_rate_cap c ~route =
  if Array.length route = 0 then infinity
  else begin
    let min_bw =
      Array.fold_left
        (fun acc l -> Float.min acc (link c l).Link.bandwidth)
        infinity route
    in
    let rtt = 2. *. one_way_latency c ~route in
    if rtt <= 0. then min_bw else Float.min min_bw (c.tcp_wmax /. rtt)
  end

let all_procs c = Procset.range 0 (n_procs c)

let chti =
  make ~name:"chti" ~topology:(Topology.Flat 20) ~speed_gflops:4.311 ()

let grillon =
  make ~name:"grillon" ~topology:(Topology.Flat 47) ~speed_gflops:3.379 ()

let grelon =
  make ~name:"grelon"
    ~topology:(Topology.Cabinets { cabinets = 5; per_cabinet = 24 })
    ~speed_gflops:3.185 ()

let presets = [ chti; grillon; grelon ]

let signature c =
  let topo =
    match c.topology with
    | Topology.Flat n -> Printf.sprintf "flat:%d" n
    | Topology.Cabinets { cabinets; per_cabinet } ->
        Printf.sprintf "cab:%dx%d" cabinets per_cabinet
  in
  Printf.sprintf "%s|%s|%h|%h/%h|%h/%h|%h" c.name topo c.speed
    c.node_link.Link.latency c.node_link.Link.bandwidth
    c.uplink.Link.latency c.uplink.Link.bandwidth c.tcp_wmax

let pp ppf c =
  Format.fprintf ppf "%s: %d procs x %.3f GFlop/s, %s" c.name (n_procs c)
    (c.speed /. Units.giga)
    (match c.topology with
    | Topology.Flat _ -> "flat switch"
    | Topology.Cabinets { cabinets; per_cabinet } ->
        Printf.sprintf "%d cabinets x %d nodes" cabinets per_cabinet)
