(* Tests for rats_sim: Max-Min fairness solver and discrete-event engine. *)

module Maxmin = Rats_sim.Maxmin
module Engine = Rats_sim.Engine
module Cluster = Rats_platform.Cluster
module Topology = Rats_platform.Topology
module Link = Rats_platform.Link

let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg
let checkf_rel msg expected actual =
  Alcotest.check (Alcotest.float (1e-6 *. Float.max 1. (Float.abs expected)))
    msg expected actual
let qcheck t = Rats_test_support.Seeded.to_alcotest t

let flow links rate_cap = { Maxmin.links = Array.of_list links; rate_cap }

let solve ?(cap = 100.) n_links flows =
  Maxmin.solve ~n_links ~capacity:(fun _ -> cap) (Array.of_list flows)

(* --- Maxmin -------------------------------------------------------------- *)

let test_maxmin_single () =
  let rates = solve 1 [ flow [ 0 ] infinity ] in
  checkf "full capacity" 100. rates.(0)

let test_maxmin_two_share () =
  let rates = solve 1 [ flow [ 0 ] infinity; flow [ 0 ] infinity ] in
  checkf "half each (1)" 50. rates.(0);
  checkf "half each (2)" 50. rates.(1)

let test_maxmin_cap_binds () =
  let rates = solve 1 [ flow [ 0 ] 10.; flow [ 0 ] infinity ] in
  checkf "capped flow" 10. rates.(0);
  checkf "rest to the other" 90. rates.(1)

let test_maxmin_bottleneck_chain () =
  (* Flow A crosses links 0,1; flow B crosses link 0; flow C crosses link 1.
     Classic max-min solution with capacity 100: A=50, B=50, C=50. *)
  let rates =
    solve 2 [ flow [ 0; 1 ] infinity; flow [ 0 ] infinity; flow [ 1 ] infinity ]
  in
  checkf "A" 50. rates.(0);
  checkf "B" 50. rates.(1);
  checkf "C" 50. rates.(2)

let test_maxmin_asymmetric_bottleneck () =
  (* Link 0 capacity 100 with 3 flows; link 1 capacity 100 with 1 of them.
     All flows on link 0 get 100/3; the long flow is limited by link 0. *)
  let rates =
    solve 2
      [ flow [ 0; 1 ] infinity; flow [ 0 ] infinity; flow [ 0 ] infinity ]
  in
  checkf_rel "long flow" (100. /. 3.) rates.(0);
  checkf_rel "short 1" (100. /. 3.) rates.(1);
  checkf_rel "short 2" (100. /. 3.) rates.(2)

let test_maxmin_progressive_refill () =
  (* After the bottleneck freezes, remaining flows keep filling: link 0 has
     flows A,B; link 1 has flow B only... use capacities via distinct links:
     link0 cap 100 shared by A,B; link1 cap 30 used by A alone: A limited to
     30, then B gets 70. *)
  let capacity = function 0 -> 100. | _ -> 30. in
  let rates =
    Maxmin.solve ~n_links:2 ~capacity
      [| flow [ 0; 1 ] infinity; flow [ 0 ] infinity |]
  in
  checkf "A at small link" 30. rates.(0);
  checkf "B takes the rest" 70. rates.(1)

let test_maxmin_unconstrained_flow () =
  let rates = solve 1 [ flow [] infinity ] in
  checkf "infinite" infinity rates.(0)

let test_maxmin_empty_links_with_cap () =
  let rates = solve 1 [ flow [] 42. ] in
  checkf "cap" 42. rates.(0)

let test_maxmin_validation () =
  Alcotest.check_raises "bad link" (Invalid_argument "Maxmin.solve: bad link")
    (fun () -> ignore (solve 1 [ flow [ 3 ] infinity ]));
  Alcotest.check_raises "bad cap"
    (Invalid_argument "Maxmin.solve: non-positive cap") (fun () ->
      ignore (solve 1 [ flow [ 0 ] 0. ]))

let test_maxmin_utilization () =
  let flows = [| flow [ 0 ] infinity; flow [ 0 ] infinity |] in
  let rates = Maxmin.solve ~n_links:1 ~capacity:(fun _ -> 100.) flows in
  checkf "sums to capacity" 100. (Maxmin.utilization ~n_links:1 flows ~rates 0)

(* qcheck: feasibility (no link over capacity) and saturation (every flow is
   blocked by a saturated link or its own cap) — the definition of Max-Min
   fairness. *)
let random_flows =
  QCheck.(
    list_of_size Gen.(1 -- 30)
      (pair (list_of_size Gen.(0 -- 4) (int_bound 9)) (float_range 1. 1000.)))

let qcheck_maxmin_feasible =
  QCheck.Test.make ~count:200 ~name:"maxmin respects link capacities"
    random_flows
    (fun specs ->
      let flows =
        Array.of_list
          (List.map (fun (ls, cap) -> flow (List.sort_uniq compare ls) cap) specs)
      in
      let rates = Maxmin.solve ~n_links:10 ~capacity:(fun _ -> 50.) flows in
      let ok = ref true in
      for l = 0 to 9 do
        if Maxmin.utilization ~n_links:10 flows ~rates l > 50. *. (1. +. 1e-6)
        then ok := false
      done;
      !ok)

let qcheck_maxmin_saturated =
  QCheck.Test.make ~count:200 ~name:"every flow hits a bottleneck or its cap"
    random_flows
    (fun specs ->
      let flows =
        Array.of_list
          (List.map (fun (ls, cap) -> flow (List.sort_uniq compare ls) cap) specs)
      in
      let rates = Maxmin.solve ~n_links:10 ~capacity:(fun _ -> 50.) flows in
      let saturated l =
        Maxmin.utilization ~n_links:10 flows ~rates l >= 50. *. (1. -. 1e-5)
      in
      Array.for_all Fun.id
        (Array.mapi
           (fun i f ->
             let at_cap = rates.(i) >= f.Maxmin.rate_cap *. (1. -. 1e-5) in
             at_cap || Array.exists saturated f.Maxmin.links)
           flows))

(* --- Incremental Maxmin --------------------------------------------------- *)

module Inc = Maxmin.Incremental

let rate inc h =
  let r = [| nan |] in
  Inc.read_rates inc [| h |] r 1;
  r.(0)

let inc_create () = Inc.create ~n_links:10 ~capacity:(fun _ -> 50.)

(* Random op sequences over the incremental solver, on links
   [0 .. n_links - 1]. An add lists up to four links, and one add in four
   lists its first link a second time. [`Remove k] removes the [k mod
   alive]-th live flow; [`Remove_on (l, pick)] removes the first, a middle
   or the last flow of link [l]'s slice; [`Refresh] forces a mid-sequence
   solve so refreshes see both small and large changed sets. *)
let ops_over n_links =
  QCheck.Gen.(
    list_size (1 -- 60)
      (frequency
         [
           ( 3,
             map3
               (fun twice ls cap ->
                 let ls = List.sort_uniq compare ls in
                 match ls with
                 | l :: _ when twice -> `Add (ls @ [ l ], cap)
                 | _ -> `Add (ls, cap))
               (frequencyl [ (1, true); (3, false) ])
               (list_size (0 -- 4) (int_bound (n_links - 1)))
               (float_range 1. 1000.) );
           (2, map (fun k -> `Remove k) (int_bound 100));
           ( 2,
             map2
               (fun l pick -> `Remove_on (l, pick))
               (int_bound (n_links - 1))
               (oneofl [ `First; `Middle; `Last ]) );
           (1, return `Refresh);
         ]))

(* Half the sequences spread over all ten links; the other half crowd
   three or four links, so that the component walk stops early on most
   refreshes (56% over 300 sequences, against 48% with a dense third). *)
let ops_gen =
  QCheck.Gen.(frequency [ (1, ops_over 10); (1, int_range 3 4 >>= ops_over) ])

let pp_op = function
  | `Add (ls, cap) ->
      Printf.sprintf "add[%s]@%g" (String.concat ";" (List.map string_of_int ls)) cap
  | `Remove k -> Printf.sprintf "rm%d" k
  | `Remove_on (l, pick) ->
      Printf.sprintf "rm-%s@%d"
        (match pick with `First -> "first" | `Middle -> "middle" | `Last -> "last")
        l
  | `Refresh -> "refresh"

let random_ops =
  QCheck.make ops_gen ~print:(fun ops -> String.concat " " (List.map pp_op ops))

(* Replay [ops] on [inc]; returns the live (handle, flow) list, newest
   first. A final refresh is always applied. [slices] mirrors the
   solver's link slices, (handle, listing) entries in slice order: an add
   appends one entry per listing, a remove takes each listing out in turn
   and moves the slice's last entry into its place. *)
let run_ops inc ops =
  let alive = ref [] in
  let slices = Array.make 10 [||] in
  let remove h =
    Inc.remove inc h;
    let f = List.assoc h !alive in
    Array.iteri
      (fun j l ->
        let s = slices.(l) in
        let last = Array.length s - 1 in
        let p = ref 0 in
        while s.(!p) <> (h, j) do
          incr p
        done;
        s.(!p) <- s.(last);
        slices.(l) <- Array.sub s 0 last)
      f.Maxmin.links;
    alive := List.filter (fun (h', _) -> h' <> h) !alive
  in
  List.iter
    (fun op ->
      match op with
      | `Add (ls, cap) ->
          let links = Array.of_list ls in
          let h = Inc.add inc ~links ~rate_cap:cap in
          Array.iteri (fun j l -> slices.(l) <- Array.append slices.(l) [| (h, j) |]) links;
          alive := (h, { Maxmin.links; rate_cap = cap }) :: !alive
      | `Remove k -> (
          match !alive with
          | [] -> ()
          | l -> remove (fst (List.nth l (k mod List.length l))))
      | `Remove_on (l, pick) -> (
          let s = slices.(l) in
          match Array.length s with
          | 0 -> ()
          | n ->
              let p = match pick with `First -> 0 | `Middle -> n / 2 | `Last -> n - 1 in
              remove (fst s.(p)))
      | `Refresh -> Inc.refresh inc)
    ops;
  Inc.refresh inc;
  !alive

let same_float a b = (Float.is_nan a && Float.is_nan b) || a = b

let qcheck_inc_matches_reference =
  QCheck.Test.make ~count:300 ~name:"incremental matches reference oracle"
    random_ops
    (fun ops ->
      let inc = inc_create () in
      let alive = run_ops inc ops in
      let flows = Array.of_list (List.map snd alive) in
      let expected = Maxmin.solve ~n_links:10 ~capacity:(fun _ -> 50.) flows in
      List.for_all2
        (fun (h, _) exp ->
          let got = rate inc h in
          if exp = infinity then got = infinity
          else Float.abs (got -. exp) <= 1e-7 *. Float.max 1. (Float.abs exp))
        alive (Array.to_list expected))

let qcheck_inc_path_independent =
  QCheck.Test.make ~count:300
    ~name:"incremental rates are a pure function of the flow set" random_ops
    (fun ops ->
      let inc = inc_create () in
      let alive = run_ops inc ops in
      (* Re-add the surviving flows to a fresh solver: bit-identical rates
         must come out, however the first solver got there. *)
      let fresh = inc_create () in
      let readded =
        List.map
          (fun (h, f) ->
            (h, Inc.add fresh ~links:f.Maxmin.links ~rate_cap:f.Maxmin.rate_cap))
          alive
      in
      Inc.refresh fresh;
      List.for_all
        (fun (h, h') -> same_float (rate inc h) (rate fresh h'))
        readded)

let test_inc_basics () =
  let inc = inc_create () in
  let a = Inc.add inc ~links:[| 0 |] ~rate_cap:infinity in
  Inc.refresh inc;
  checkf "full capacity" 50. (rate inc a);
  let b = Inc.add inc ~links:[| 0 |] ~rate_cap:infinity in
  Inc.refresh inc;
  checkf "half (a)" 25. (rate inc a);
  checkf "half (b)" 25. (rate inc b);
  Inc.remove inc b;
  Inc.refresh inc;
  checkf "back to full" 50. (rate inc a);
  Alcotest.(check int) "one live flow" 1 (Inc.n_flows inc)

let test_inc_untouched_component_stable () =
  (* Flows on disjoint links: adding to one component must not disturb the
     other (its rates are reused verbatim, not recomputed). *)
  let inc = inc_create () in
  let a = Inc.add inc ~links:[| 0 |] ~rate_cap:infinity in
  let b = Inc.add inc ~links:[| 1 |] ~rate_cap:7. in
  Inc.refresh inc;
  let ra = rate inc a and rb = rate inc b in
  let c = Inc.add inc ~links:[| 2; 3 |] ~rate_cap:infinity in
  Inc.refresh inc;
  Alcotest.(check bool) "a untouched" true (same_float ra (rate inc a));
  Alcotest.(check bool) "b untouched" true (same_float rb (rate inc b));
  checkf "c solved" 50. (rate inc c)

let test_inc_refresh_reaches_only_changed () =
  (* Three of five linked flows are new, all on link 2: the refresh must
     re-solve their one component and leave the components of links 0 and
     1 alone, however large the changed share of the flows. No walk stops
     early until the flows of links 0 and 1 are gone: then link 2's
     component is every linked flow. *)
  let module Metrics = Rats_obs.Metrics in
  let module Instr = Rats_obs.Instr in
  let inc = inc_create () in
  let a = Inc.add inc ~links:[| 0 |] ~rate_cap:infinity in
  let b = Inc.add inc ~links:[| 1 |] ~rate_cap:7. in
  Inc.refresh inc;
  Inc.publish inc;
  let ra = rate inc a and rb = rate inc b in
  let counters =
    Instr.
      [
        maxmin_component_solves;
        maxmin_dirty_flows;
        maxmin_skipped_flows;
        maxmin_walk_stops;
      ]
  in
  let deltas () =
    let before = List.map Metrics.counter_value counters in
    Inc.refresh inc;
    Inc.publish inc;
    List.map2 (fun c n -> Metrics.counter_value c - n) counters before
  in
  for _ = 1 to 3 do
    ignore (Inc.add inc ~links:[| 2 |] ~rate_cap:infinity)
  done;
  Alcotest.(check (list int))
    "component solves, dirty flows, skipped flows, walk stops" [ 1; 3; 2; 0 ]
    (deltas ());
  Alcotest.(check bool) "a untouched" true (same_float ra (rate inc a));
  Alcotest.(check bool) "b untouched" true (same_float rb (rate inc b));
  Inc.remove inc a;
  Inc.remove inc b;
  ignore (Inc.add inc ~links:[| 2 |] ~rate_cap:infinity);
  Alcotest.(check (list int))
    "after the other links emptied: one walk, stopped" [ 1; 4; 0; 1 ] (deltas ())

let test_inc_linkless () =
  let inc = inc_create () in
  let free = Inc.add inc ~links:[||] ~rate_cap:infinity in
  let capped = Inc.add inc ~links:[||] ~rate_cap:42. in
  (* Linkless rates are final immediately, no refresh needed. *)
  checkf "infinite" infinity (rate inc free);
  checkf "cap, exactly" 42. (rate inc capped)

(* Each rate of [groups], a partition of the live flows into their
   components, is bit for bit the rate [Maxmin.solve] gives the flow's
   component alone: the incremental water-fill makes the reference's
   operations, component by component. *)
let check_components inc groups =
  List.iteri
    (fun g group ->
      let flows = Array.of_list (List.map snd group) in
      let expected = Maxmin.solve ~n_links:10 ~capacity:(fun _ -> 50.) flows in
      List.iteri
        (fun k (h, _) ->
          let got = rate inc h in
          if not (same_float got expected.(k)) then
            Alcotest.failf "component %d, flow %d: rate %h, reference %h" g k got
              expected.(k))
        group)
    groups

let add_flow inc links rate_cap =
  let links = Array.of_list links in
  (Inc.add inc ~links ~rate_cap, { Maxmin.links; rate_cap })

(* Remove the [k]-th flow of [group] and add it back. *)
let readd inc group k =
  List.mapi
    (fun k' (h, f) ->
      if k' <> k then (h, f)
      else begin
        Inc.remove inc h;
        (Inc.add inc ~links:f.Maxmin.links ~rate_cap:f.Maxmin.rate_cap, f)
      end)
    group

let component_solves inc =
  Inc.publish inc;
  Rats_obs.Metrics.counter_value Rats_obs.Instr.maxmin_component_solves

(* A walk may stop once it has queued every link some flow crosses, and
   only then. (a) One chained component over links 0-4, each link also
   carrying a flow of its own, so a walk that left any link out would
   leave a flow that never freezes. (b) The same set plus a flow on two
   otherwise unused links, changed in the same refresh: two components,
   and the first walk must not stop. (c) One component in which a flow's
   cap is below every fair share, so its class freezes before any link
   saturates; the flow is added first, so the newest changed link's walk
   reaches every link before it stamps that flow. (d) One component
   holding a flow that lists a link twice. *)
let test_inc_walk_stops_on_whole_component () =
  let inc = inc_create () in
  let chain =
    List.map
      (fun (links, cap) -> add_flow inc links cap)
      [
        ([ 0; 1 ], infinity);
        ([ 1; 2 ], infinity);
        ([ 2; 3 ], 30.);
        ([ 3; 4 ], infinity);
        ([ 0 ], infinity);
        ([ 1 ], infinity);
        ([ 2 ], 12.);
        ([ 3 ], infinity);
        ([ 4 ], infinity);
      ]
  in
  Inc.refresh inc;
  check_components inc [ chain ];
  let before = component_solves inc in
  let chain = readd inc chain 1 in
  Inc.refresh inc;
  Alcotest.(check int) "(a) one solve" 1 (component_solves inc - before);
  check_components inc [ chain ];
  let before = component_solves inc in
  let chain = readd inc chain 3 in
  let lone = add_flow inc [ 7; 8 ] infinity in
  Inc.refresh inc;
  Alcotest.(check int) "(b) two solves" 2 (component_solves inc - before);
  check_components inc [ chain; [ lone ] ];
  let capped = inc_create () in
  let low = add_flow capped [ 2 ] 1. in
  let mid = add_flow capped [ 1; 2 ] infinity in
  let top = add_flow capped [ 0; 1 ] infinity in
  let before = component_solves capped in
  Inc.refresh capped;
  Alcotest.(check int) "(c) one solve" 1 (component_solves capped - before);
  check_components capped [ [ low; mid; top ] ];
  checkf "(c) the capped flow" 1. (rate capped (fst low));
  let twice = inc_create () in
  let group =
    [
      add_flow twice [ 3 ] infinity;
      add_flow twice [ 3; 3; 4 ] infinity;
      add_flow twice [ 4 ] infinity;
    ]
  in
  Inc.refresh twice;
  let group = readd twice group 0 in
  let before = component_solves twice in
  Inc.refresh twice;
  Alcotest.(check int) "(d) one solve" 1 (component_solves twice - before);
  check_components twice [ group ]

(* Mean minor words per refresh over [cycles] rounds of [step c] (one
   remove and one add) followed by a refresh. Once its scratch arrays
   have grown, a refresh is arithmetic on the solver's own arrays: no
   closure, no list, no boxed float. *)
let check_refresh_words inc ~cycles step =
  let words = ref 0. in
  for c = 0 to cycles - 1 do
    step c;
    let before = Gc.minor_words () in
    Inc.refresh inc;
    words := !words +. (Gc.minor_words () -. before)
  done;
  let per_refresh = !words /. float_of_int cycles in
  if per_refresh > 64. then
    Alcotest.failf "%.1f words allocated per refresh (bound 64)" per_refresh

let cluster_solver cluster =
  Inc.create ~n_links:(Cluster.n_links cluster) ~capacity:(fun l ->
      (Cluster.link cluster l).Link.bandwidth)

let add_route inc cluster ~src ~dst =
  let route = Cluster.route cluster ~src ~dst in
  Inc.add inc ~links:route ~rate_cap:(Cluster.flow_rate_cap cluster ~route)

(* 300 flows on grelon routes (two NIC links within a cabinet, four links
   across cabinets), then 5 000 cycles that replace a random flow with a
   random route. And 400 flows on distinct pairs of grillon's 47 NICs:
   each of the 1 081 pairs [(i, i + d mod 47)], d = 1 .. 23, in order of
   d; 47 is prime, so each ring of one d connects every NIC, and a window
   of 400 consecutive pairs, which holds a whole ring, is one component.
   Its 5 000 cycles drop the window's oldest pair and add the next, so
   every refresh's walk stops on reaching every loaded link. *)
let test_inc_warm_refresh_allocates_nothing () =
  let grelon = Cluster.grelon in
  let n = Cluster.n_procs grelon in
  let rng = Rats_util.Rng.create 42 in
  let inc = cluster_solver grelon in
  let add () =
    let src = Rats_util.Rng.int rng n in
    let dst = (src + 1 + Rats_util.Rng.int rng (n - 1)) mod n in
    add_route inc grelon ~src ~dst
  in
  let live = Array.init 300 (fun _ -> add ()) in
  Inc.refresh inc;
  check_refresh_words inc ~cycles:5000 (fun _ ->
      let k = Rats_util.Rng.int rng 300 in
      Inc.remove inc live.(k);
      live.(k) <- add ());
  let grillon = Cluster.grillon in
  let inc = cluster_solver grillon in
  let add p =
    let p = p mod (47 * 23) in
    let src = p mod 47 in
    add_route inc grillon ~src ~dst:((src + 1 + (p / 47)) mod 47)
  in
  let live = Array.init 400 add in
  Inc.refresh inc;
  check_refresh_words inc ~cycles:5000 (fun c ->
      Inc.remove inc live.(c mod 400);
      live.(c mod 400) <- add (c + 400))

let test_inc_validation () =
  let inc = inc_create () in
  Alcotest.check_raises "bad link"
    (Invalid_argument "Maxmin.Incremental.add: bad link") (fun () ->
      ignore (Inc.add inc ~links:[| 10 |] ~rate_cap:infinity));
  Alcotest.check_raises "bad cap"
    (Invalid_argument "Maxmin.Incremental.add: non-positive cap") (fun () ->
      ignore (Inc.add inc ~links:[| 0 |] ~rate_cap:0.));
  let h = Inc.add inc ~links:[| 0 |] ~rate_cap:1. in
  Inc.remove inc h;
  Alcotest.check_raises "dead handle"
    (Invalid_argument "Maxmin.Incremental.remove: dead handle") (fun () ->
      Inc.remove inc h)

(* --- Engine -------------------------------------------------------------- *)

let flat4 =
  Cluster.make ~name:"flat4" ~topology:(Topology.Flat 4) ~speed_gflops:1. ()

let test_engine_single_flow_timing () =
  let eng = Engine.create flat4 in
  let finish = ref nan in
  Engine.start_flow eng ~src:0 ~dst:1 ~bytes:1.25e8
    ~on_complete:(fun eng -> finish := Engine.now eng);
  ignore (Engine.run eng);
  (* one-way latency 200us + 1.25e8 bytes at 125MB/s = 1s *)
  checkf "latency + transfer" 1.0002 !finish

let test_engine_two_flows_share_nic () =
  let eng = Engine.create flat4 in
  let finishes = ref [] in
  for dst = 1 to 2 do
    Engine.start_flow eng ~src:0 ~dst ~bytes:1.25e8
      ~on_complete:(fun eng -> finishes := Engine.now eng :: !finishes)
  done;
  ignore (Engine.run eng);
  (* Sender NIC shared: both flows at 62.5MB/s -> 2s + latency. *)
  List.iter (fun f -> checkf "shared bandwidth" 2.0002 f) !finishes

let test_engine_disjoint_flows_full_speed () =
  let eng = Engine.create flat4 in
  let finishes = ref [] in
  List.iter
    (fun (src, dst) ->
      Engine.start_flow eng ~src ~dst ~bytes:1.25e8
        ~on_complete:(fun eng -> finishes := Engine.now eng :: !finishes))
    [ (0, 1); (2, 3) ];
  ignore (Engine.run eng);
  List.iter (fun f -> checkf "no sharing" 1.0002 f) !finishes

let test_engine_self_flow_instant () =
  let eng = Engine.create flat4 in
  let finish = ref nan in
  Engine.start_flow eng ~src:2 ~dst:2 ~bytes:1e12
    ~on_complete:(fun eng -> finish := Engine.now eng);
  ignore (Engine.run eng);
  checkf "free local copy" 0. !finish

let test_engine_zero_bytes_instant () =
  let eng = Engine.create flat4 in
  let finish = ref nan in
  Engine.start_flow eng ~src:0 ~dst:1 ~bytes:0.
    ~on_complete:(fun eng -> finish := Engine.now eng);
  ignore (Engine.run eng);
  checkf "empty payload" 0. !finish

let test_engine_timers () =
  let eng = Engine.create flat4 in
  let log = ref [] in
  Engine.at eng 2. (fun _ -> log := 2 :: !log);
  Engine.at eng 1. (fun _ -> log := 1 :: !log);
  Engine.after eng 3. (fun _ -> log := 3 :: !log);
  let final = Engine.run eng in
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  checkf "final time" 3. final

let test_engine_same_time_fifo () =
  let eng = Engine.create flat4 in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.at eng 1. (fun _ -> log := i :: !log)
  done;
  ignore (Engine.run eng);
  Alcotest.(check (list int)) "fifo at equal dates" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_past_event_rejected () =
  let eng = Engine.create flat4 in
  Engine.at eng 1. (fun eng ->
      Alcotest.check_raises "past" (Invalid_argument "Engine.at: time in the past")
        (fun () -> Engine.at eng 0.5 (fun _ -> ())));
  ignore (Engine.run eng)

(* A NaN clock makes no event due, so [Engine.run] would spin forever, and
   an infinite payload never drains, so the run would end with its flow in
   flight. Each is refused where it enters. *)
let test_engine_non_finite_inputs () =
  let eng = Engine.create flat4 in
  let nop _ = () in
  Alcotest.check_raises "at nan" (Invalid_argument "Engine.at: NaN time")
    (fun () -> Engine.at eng nan nop);
  Alcotest.check_raises "after nan" (Invalid_argument "Engine.after: NaN delay")
    (fun () -> Engine.after eng nan nop);
  List.iter
    (fun bytes ->
      Alcotest.check_raises
        (Printf.sprintf "start_flow ~bytes:%g" bytes)
        (Invalid_argument "Engine.start_flow: non-finite bytes")
        (fun () -> Engine.start_flow eng ~src:0 ~dst:1 ~bytes ~on_complete:nop))
    [ nan; infinity; neg_infinity ];
  List.iter
    (fun date ->
      Alcotest.check_raises
        (Printf.sprintf "run_until %g" date)
        (Invalid_argument "Engine.run_until: date in the past or not finite")
        (fun () -> Engine.run_until eng date))
    [ nan; infinity ];
  (* Nothing was queued: the run ends at once. *)
  checkf "nothing queued" 0. (Engine.run eng)

let test_engine_run_until () =
  let eng = Engine.create flat4 in
  let fired = ref false in
  Engine.at eng 5. (fun _ -> fired := true);
  Engine.run_until eng 3.;
  checkf "clock advanced" 3. (Engine.now eng);
  Alcotest.(check bool) "not yet" false !fired;
  Engine.run_until eng 6.;
  Alcotest.(check bool) "fired" true !fired

let test_engine_dynamic_rate_change () =
  (* Second flow arrives halfway through the first: the first transfers
     0.5s at full rate, then shares. 1.25e8 bytes total: 0.5s x 125MB/s =
     62.5MB done; remaining 62.5MB at 62.5MB/s = 1s more. *)
  let eng = Engine.create flat4 in
  let f1 = ref nan in
  Engine.start_flow eng ~src:0 ~dst:1 ~bytes:1.25e8
    ~on_complete:(fun eng -> f1 := Engine.now eng);
  Engine.at eng 0.5002 (fun eng ->
      Engine.start_flow eng ~src:0 ~dst:2 ~bytes:1e9 ~on_complete:(fun _ -> ()));
  ignore (Engine.run eng);
  Alcotest.(check (float 1e-3)) "slowed by the newcomer" 1.5004 !f1

let test_engine_empirical_bandwidth () =
  (* A tiny TCP window caps the end-to-end rate below the link bandwidth. *)
  let tiny =
    Cluster.make ~name:"tiny" ~topology:(Topology.Flat 2) ~speed_gflops:1.
      ~tcp_wmax:12500. ()
  in
  (* RTT = 2 x 200us = 400us -> cap = 12500/4e-4 = 31.25 MB/s. *)
  let eng = Engine.create tiny in
  let finish = ref nan in
  Engine.start_flow eng ~src:0 ~dst:1 ~bytes:3.125e7
    ~on_complete:(fun eng -> finish := Engine.now eng);
  ignore (Engine.run eng);
  Alcotest.(check (float 1e-3)) "window-capped transfer" 1.0002 !finish

let test_engine_determinism () =
  let run () =
    let eng = Engine.create flat4 in
    let acc = ref [] in
    List.iter
      (fun (s, d, b) ->
        Engine.start_flow eng ~src:s ~dst:d ~bytes:b
          ~on_complete:(fun eng -> acc := Engine.now eng :: !acc))
      [ (0, 1, 1e8); (1, 2, 2e8); (2, 3, 5e7); (0, 2, 1e8); (3, 0, 3e8) ];
    ignore (Engine.run eng);
    !acc
  in
  Alcotest.(check (list (float 0.))) "identical runs" (run ()) (run ())

let test_engine_cabinet_contention () =
  (* Two flows between different cabinets share the uplinks. *)
  let c =
    Cluster.make ~name:"cab"
      ~topology:(Topology.Cabinets { cabinets = 2; per_cabinet = 2 })
      ~speed_gflops:1. ()
  in
  let eng = Engine.create c in
  let finishes = ref [] in
  List.iter
    (fun (s, d) ->
      Engine.start_flow eng ~src:s ~dst:d ~bytes:1.25e8
        ~on_complete:(fun eng -> finishes := Engine.now eng :: !finishes))
    [ (0, 2); (1, 3) ];
  ignore (Engine.run eng);
  (* Both cross uplinks 4 and 5: 62.5MB/s each; 4-hop latency 400us. *)
  List.iter (fun f -> Alcotest.(check (float 1e-3)) "uplink shared" 2.0004 f)
    !finishes


(* --- Engine stress and property tests -------------------------------------- *)

let random_flow_set seed n =
  let rng = Rats_util.Rng.create seed in
  List.init n (fun _ ->
      let src = Rats_util.Rng.int rng 4 in
      let dst = (src + 1 + Rats_util.Rng.int rng 3) mod 4 in
      let bytes = Rats_util.Rng.uniform rng 1e6 1e8 in
      (src, dst, bytes))

let test_engine_mass_flows () =
  let eng = Engine.create flat4 in
  let flows = random_flow_set 99 500 in
  let completed = ref 0 in
  List.iter
    (fun (src, dst, bytes) ->
      Engine.start_flow eng ~src ~dst ~bytes
        ~on_complete:(fun _ -> incr completed))
    flows;
  let final = Engine.run eng in
  Alcotest.(check int) "all flows completed" 500 !completed;
  (* Aggregate bound: the busiest NIC must drain all its bytes at link rate. *)
  let load = Array.make 4 0. in
  List.iter
    (fun (src, dst, bytes) ->
      load.(src) <- load.(src) +. bytes;
      load.(dst) <- load.(dst) +. bytes)
    flows;
  let bound = Array.fold_left Float.max 0. load /. 1.25e8 in
  Alcotest.(check bool) "final time >= busiest NIC drain" true
    (final >= bound -. 1e-6);
  (* And it cannot be slower than fully serializing everything. *)
  let serial =
    List.fold_left (fun acc (_, _, b) -> acc +. (b /. 1.25e8) +. 2e-4) 0. flows
  in
  Alcotest.(check bool) "no slower than serial" true (final <= serial +. 1e-6)

let qcheck_engine_flow_lower_bound =
  QCheck.Test.make ~count:50
    ~name:"every flow takes at least its isolated transfer time"
    QCheck.(pair (int_range 0 10000) (int_range 1 40))
    (fun (seed, n) ->
      let eng = Engine.create flat4 in
      let finishes = Hashtbl.create 16 in
      List.iteri
        (fun i (src, dst, bytes) ->
          Engine.start_flow eng ~src ~dst ~bytes ~on_complete:(fun e ->
              Hashtbl.replace finishes i (Engine.now e)))
        (random_flow_set seed n);
      ignore (Engine.run eng);
      let ok = ref true in
      List.iteri
        (fun i (_, _, bytes) ->
          let isolated = 2e-4 +. (bytes /. 1.25e8) in
          match Hashtbl.find_opt finishes i with
          | Some f -> if f < isolated -. 1e-6 then ok := false
          | None -> ok := false)
        (random_flow_set seed n);
      !ok)

let test_engine_run_until_equivalence () =
  (* Stepping the clock in small increments must not change any completion
     date compared to one uninterrupted run. *)
  let run_with_steps step =
    let eng = Engine.create flat4 in
    let finishes = ref [] in
    List.iter
      (fun (src, dst, bytes) ->
        Engine.start_flow eng ~src ~dst ~bytes ~on_complete:(fun e ->
            finishes := Engine.now e :: !finishes))
      (random_flow_set 7 20);
    (match step with
    | None -> ignore (Engine.run eng)
    | Some dt ->
        for k = 1 to 200 do
          Engine.run_until eng (float_of_int k *. dt)
        done;
        ignore (Engine.run eng));
    List.rev !finishes
  in
  let direct = run_with_steps None in
  let stepped = run_with_steps (Some 0.01) in
  Alcotest.(check (list (float 1e-9))) "identical completions" direct stepped

let test_engine_flow_during_compute_timer () =
  (* Timers and flows advance on the same clock. *)
  let eng = Engine.create flat4 in
  let order = ref [] in
  Engine.after eng 0.5 (fun _ -> order := "timer" :: !order);
  Engine.start_flow eng ~src:0 ~dst:1 ~bytes:1.25e8 ~on_complete:(fun _ ->
      order := "flow" :: !order);
  ignore (Engine.run eng);
  Alcotest.(check (list string)) "timer fires mid-transfer" [ "timer"; "flow" ]
    (List.rev !order)

let () =
  Alcotest.run "rats_sim"
    [
      ( "maxmin",
        [
          Alcotest.test_case "single flow" `Quick test_maxmin_single;
          Alcotest.test_case "two flows share" `Quick test_maxmin_two_share;
          Alcotest.test_case "cap binds" `Quick test_maxmin_cap_binds;
          Alcotest.test_case "bottleneck chain" `Quick test_maxmin_bottleneck_chain;
          Alcotest.test_case "asymmetric bottleneck" `Quick
            test_maxmin_asymmetric_bottleneck;
          Alcotest.test_case "progressive refill" `Quick
            test_maxmin_progressive_refill;
          Alcotest.test_case "unconstrained flow" `Quick
            test_maxmin_unconstrained_flow;
          Alcotest.test_case "empty links with cap" `Quick
            test_maxmin_empty_links_with_cap;
          Alcotest.test_case "validation" `Quick test_maxmin_validation;
          Alcotest.test_case "utilization" `Quick test_maxmin_utilization;
          qcheck qcheck_maxmin_feasible;
          qcheck qcheck_maxmin_saturated;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "add/remove basics" `Quick test_inc_basics;
          Alcotest.test_case "untouched component stable" `Quick
            test_inc_untouched_component_stable;
          Alcotest.test_case "refresh re-solves only reached components" `Quick
            test_inc_refresh_reaches_only_changed;
          Alcotest.test_case "linkless flows" `Quick test_inc_linkless;
          Alcotest.test_case "validation" `Quick test_inc_validation;
          Alcotest.test_case "warm refresh allocates nothing" `Quick
            test_inc_warm_refresh_allocates_nothing;
          Alcotest.test_case "walk stops only on a whole component" `Quick
            test_inc_walk_stops_on_whole_component;
          qcheck qcheck_inc_matches_reference;
          qcheck qcheck_inc_path_independent;
        ] );
      ( "engine",
        [
          Alcotest.test_case "single flow timing" `Quick
            test_engine_single_flow_timing;
          Alcotest.test_case "NIC sharing" `Quick test_engine_two_flows_share_nic;
          Alcotest.test_case "disjoint flows" `Quick
            test_engine_disjoint_flows_full_speed;
          Alcotest.test_case "self flow" `Quick test_engine_self_flow_instant;
          Alcotest.test_case "zero bytes" `Quick test_engine_zero_bytes_instant;
          Alcotest.test_case "timers" `Quick test_engine_timers;
          Alcotest.test_case "fifo same date" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "past event rejected" `Quick
            test_engine_past_event_rejected;
          Alcotest.test_case "non-finite inputs" `Quick
            test_engine_non_finite_inputs;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "dynamic rate change" `Quick
            test_engine_dynamic_rate_change;
          Alcotest.test_case "empirical bandwidth" `Quick
            test_engine_empirical_bandwidth;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "cabinet contention" `Quick
            test_engine_cabinet_contention;
        ] );
      ( "stress",
        [
          Alcotest.test_case "500 flows" `Quick test_engine_mass_flows;
          qcheck qcheck_engine_flow_lower_bound;
          Alcotest.test_case "run_until equivalence" `Quick
            test_engine_run_until_equivalence;
          Alcotest.test_case "timer during flow" `Quick
            test_engine_flow_during_compute_timer;
        ] );
    ]
