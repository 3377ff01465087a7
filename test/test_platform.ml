(* Tests for rats_platform: links, topologies, cluster presets and routes. *)

module Link = Rats_platform.Link
module Topology = Rats_platform.Topology
module Cluster = Rats_platform.Cluster
module Units = Rats_util.Units

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* --- Link ---------------------------------------------------------------- *)

let test_link_gigabit () =
  checkf "latency 100us" 1e-4 Link.gigabit.Link.latency;
  checkf "bandwidth 1Gb/s in bytes" 1.25e8 Link.gigabit.Link.bandwidth

let test_link_validation () =
  Alcotest.check_raises "negative latency"
    (Invalid_argument "Link.make: negative latency") (fun () ->
      ignore (Link.make ~latency:(-1.) ~bandwidth:1.));
  Alcotest.check_raises "zero bandwidth"
    (Invalid_argument "Link.make: non-positive bandwidth") (fun () ->
      ignore (Link.make ~latency:0. ~bandwidth:0.))

(* --- Topology ------------------------------------------------------------ *)

let test_topology_flat () =
  let t = Topology.Flat 8 in
  check Alcotest.int "nodes" 8 (Topology.n_nodes t);
  check Alcotest.int "no uplinks" 0 (Topology.n_uplinks t);
  check Alcotest.int "single cabinet" 0 (Topology.cabinet_of t 5);
  Alcotest.(check bool) "same cabinet" true (Topology.same_cabinet t 0 7)

let test_topology_cabinets () =
  let t = Topology.Cabinets { cabinets = 3; per_cabinet = 4 } in
  check Alcotest.int "nodes" 12 (Topology.n_nodes t);
  check Alcotest.int "uplinks" 3 (Topology.n_uplinks t);
  check Alcotest.int "node 0 cabinet" 0 (Topology.cabinet_of t 0);
  check Alcotest.int "node 4 cabinet" 1 (Topology.cabinet_of t 4);
  check Alcotest.int "node 11 cabinet" 2 (Topology.cabinet_of t 11);
  Alcotest.(check bool) "same cabinet" true (Topology.same_cabinet t 4 7);
  Alcotest.(check bool) "different cabinets" false (Topology.same_cabinet t 3 4)

let test_topology_bounds () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Topology: node out of range") (fun () ->
      ignore (Topology.cabinet_of (Topology.Flat 4) 4))

(* --- Cluster presets (Table II) ------------------------------------------ *)

let test_presets_table2 () =
  check Alcotest.int "chti procs" 20 (Cluster.n_procs Cluster.chti);
  check Alcotest.int "grillon procs" 47 (Cluster.n_procs Cluster.grillon);
  check Alcotest.int "grelon procs" 120 (Cluster.n_procs Cluster.grelon);
  checkf "chti speed" (Units.gflops 4.311) Cluster.chti.Cluster.speed;
  checkf "grillon speed" (Units.gflops 3.379) Cluster.grillon.Cluster.speed;
  checkf "grelon speed" (Units.gflops 3.185) Cluster.grelon.Cluster.speed;
  check Alcotest.int "grelon uplinks" 125 (Cluster.n_links Cluster.grelon);
  check Alcotest.int "grillon links" 47 (Cluster.n_links Cluster.grillon);
  check Alcotest.int "three presets" 3 (List.length Cluster.presets)

let test_cluster_validation () =
  Alcotest.check_raises "bad speed"
    (Invalid_argument "Cluster.make: non-positive speed") (fun () ->
      ignore
        (Cluster.make ~name:"x" ~topology:(Topology.Flat 2) ~speed_gflops:0. ()))

let test_nan_parameters () =
  Alcotest.check_raises "nan speed"
    (Invalid_argument "Cluster.make: non-positive speed") (fun () ->
      ignore
        (Cluster.make ~name:"x" ~topology:(Topology.Flat 2) ~speed_gflops:nan ()));
  Alcotest.check_raises "nan tcp_wmax"
    (Invalid_argument "Cluster.make: non-positive tcp_wmax") (fun () ->
      ignore
        (Cluster.make ~name:"x" ~topology:(Topology.Flat 2) ~speed_gflops:1.
           ~tcp_wmax:nan ()));
  Alcotest.check_raises "nan latency"
    (Invalid_argument "Link.make: negative latency") (fun () ->
      ignore (Link.make ~latency:nan ~bandwidth:1.));
  Alcotest.check_raises "nan bandwidth"
    (Invalid_argument "Link.make: non-positive bandwidth") (fun () ->
      ignore (Link.make ~latency:0. ~bandwidth:nan))

(* --- Routes -------------------------------------------------------------- *)

let test_route_flat () =
  let c = Cluster.grillon in
  Alcotest.(check (array int)) "self route empty" [||]
    (Cluster.route c ~src:3 ~dst:3);
  Alcotest.(check (array int)) "two private links" [| 3; 9 |]
    (Cluster.route c ~src:3 ~dst:9)

let test_route_hierarchical () =
  let c = Cluster.grelon in
  (* nodes 0 and 5 share cabinet 0 (24 per cabinet) *)
  Alcotest.(check (array int)) "same cabinet" [| 0; 5 |]
    (Cluster.route c ~src:0 ~dst:5);
  (* nodes 0 (cab 0) and 30 (cab 1): both NICs plus both uplinks *)
  Alcotest.(check (array int)) "across cabinets" [| 0; 120; 121; 30 |]
    (Cluster.route c ~src:0 ~dst:30)

let test_route_bounds () =
  Alcotest.check_raises "bad node"
    (Invalid_argument "Cluster.route: node out of range") (fun () ->
      ignore (Cluster.route Cluster.chti ~src:0 ~dst:20))

let test_one_way_latency () =
  let c = Cluster.grelon in
  let flat = Cluster.route c ~src:0 ~dst:5 in
  checkf "2 hops" 2e-4 (Cluster.one_way_latency c ~route:flat);
  let deep = Cluster.route c ~src:0 ~dst:30 in
  checkf "4 hops" 4e-4 (Cluster.one_way_latency c ~route:deep)

let test_flow_rate_cap () =
  let c = Cluster.grillon in
  let route = Cluster.route c ~src:0 ~dst:1 in
  (* RTT = 2 x 200us = 400us; Wmax = 4MiB -> 10.5 GB/s >> 125 MB/s *)
  checkf "bandwidth-bound" 1.25e8 (Cluster.flow_rate_cap c ~route);
  checkf "empty route unbounded" infinity (Cluster.flow_rate_cap c ~route:[||]);
  (* A tiny TCP window makes the empirical bandwidth bind. *)
  let small =
    Cluster.make ~name:"tiny" ~topology:(Topology.Flat 4) ~speed_gflops:1.
      ~tcp_wmax:1000. ()
  in
  let r = Cluster.route small ~src:0 ~dst:1 in
  checkf "window-bound" (1000. /. 4e-4) (Cluster.flow_rate_cap small ~route:r)

let test_all_procs () =
  check Alcotest.int "all procs size" 20
    (Rats_util.Procset.size (Cluster.all_procs Cluster.chti))

let test_link_lookup () =
  let c = Cluster.grelon in
  checkf "node link bandwidth" 1.25e8 (Cluster.link c 0).Link.bandwidth;
  checkf "uplink bandwidth" 1.25e8 (Cluster.link c 124).Link.bandwidth;
  Alcotest.check_raises "link out of range"
    (Invalid_argument "Cluster.link: out of range") (fun () ->
      ignore (Cluster.link c 125))

let () =
  Alcotest.run "rats_platform"
    [
      ( "link",
        [
          Alcotest.test_case "gigabit" `Quick test_link_gigabit;
          Alcotest.test_case "validation" `Quick test_link_validation;
        ] );
      ( "topology",
        [
          Alcotest.test_case "flat" `Quick test_topology_flat;
          Alcotest.test_case "cabinets" `Quick test_topology_cabinets;
          Alcotest.test_case "bounds" `Quick test_topology_bounds;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "Table II presets" `Quick test_presets_table2;
          Alcotest.test_case "validation" `Quick test_cluster_validation;
          Alcotest.test_case "nan parameters" `Quick test_nan_parameters;
          Alcotest.test_case "flat routes" `Quick test_route_flat;
          Alcotest.test_case "hierarchical routes" `Quick test_route_hierarchical;
          Alcotest.test_case "route bounds" `Quick test_route_bounds;
          Alcotest.test_case "one-way latency" `Quick test_one_way_latency;
          Alcotest.test_case "flow rate cap" `Quick test_flow_rate_cap;
          Alcotest.test_case "all procs" `Quick test_all_procs;
          Alcotest.test_case "link lookup" `Quick test_link_lookup;
        ] );
    ]
