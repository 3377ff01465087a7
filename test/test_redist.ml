(* Tests for rats_redist: block distributions, communication matrices,
   self-communication-maximizing placement and cost estimates. *)

module Block = Rats_redist.Block
module Placement = Rats_redist.Placement
module Redistribution = Rats_redist.Redistribution
module Procset = Rats_util.Procset
module Cluster = Rats_platform.Cluster
module Topology = Rats_platform.Topology

let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let qcheck t = Rats_test_support.Seeded.to_alcotest t

(* --- Block --------------------------------------------------------------- *)

let test_interval () =
  let lo, hi = Block.interval ~amount:10. ~ranks:4 2 in
  checkf "lo" 5. lo;
  checkf "hi" 7.5 hi;
  Alcotest.check_raises "rank range"
    (Invalid_argument "Block.interval: rank out of range") (fun () ->
      ignore (Block.interval ~amount:10. ~ranks:4 4))

let test_table1_exact () =
  (* The paper's Table I: 10 units, 4 senders, 5 receivers. *)
  let m = Block.comm_matrix ~amount:10. ~senders:4 ~receivers:5 in
  let expected =
    [
      (0, 0, 2.); (0, 1, 0.5);
      (1, 1, 1.5); (1, 2, 1.);
      (2, 2, 1.); (2, 3, 1.5);
      (3, 3, 0.5); (3, 4, 2.);
    ]
  in
  Alcotest.(check int) "entry count" (List.length expected) (List.length m);
  List.iter2
    (fun (i, j, v) (i', j', v') ->
      Alcotest.(check int) "sender" i i';
      Alcotest.(check int) "receiver" j j';
      checkf "amount" v v')
    expected m

let test_comm_matrix_identity () =
  let m = Block.comm_matrix ~amount:12. ~senders:3 ~receivers:3 in
  Alcotest.(check int) "diagonal" 3 (List.length m);
  List.iter (fun (i, j, v) ->
      Alcotest.(check int) "i=j" i j;
      checkf "share" 4. v)
    m

let test_comm_matrix_sums () =
  let m = Block.comm_matrix ~amount:100. ~senders:7 ~receivers:3 in
  let rows = Block.row_sums ~senders:7 m in
  Array.iter (fun r -> checkf "row = m/p" (100. /. 7.) r) rows;
  let cols = Block.col_sums ~receivers:3 m in
  Array.iter (fun c -> checkf "col = m/q" (100. /. 3.) c) cols

let qcheck_comm_matrix_conservation =
  QCheck.Test.make ~count:300 ~name:"comm matrix conserves the data"
    QCheck.(pair (int_range 1 40) (int_range 1 40))
    (fun (p, q) ->
      let amount = 1000. in
      let m = Block.comm_matrix ~amount ~senders:p ~receivers:q in
      let total = List.fold_left (fun acc (_, _, v) -> acc +. v) 0. m in
      Float.abs (total -. amount) < 1e-6 *. amount)

let qcheck_comm_matrix_banded =
  QCheck.Test.make ~count:300 ~name:"comm matrix has at most p+q-1 entries"
    QCheck.(pair (int_range 1 40) (int_range 1 40))
    (fun (p, q) ->
      let m = Block.comm_matrix ~amount:1. ~senders:p ~receivers:q in
      List.length m <= p + q - 1
      && List.for_all (fun (_, _, v) -> v > 0.) m)

let test_overlap_matches_matrix () =
  let p = 5 and q = 7 in
  let m = Block.comm_matrix ~amount:35. ~senders:p ~receivers:q in
  List.iter
    (fun (i, j, v) ->
      checkf "overlap agrees" v
        (Block.overlap ~amount:35. ~senders:p ~receivers:q i j))
    m

(* --- Placement ----------------------------------------------------------- *)

let test_placement_disjoint_natural () =
  let sender = Procset.of_list [ 0; 1 ] in
  let receiver = Procset.of_list [ 5; 6; 7 ] in
  Alcotest.(check (array int)) "ascending order" [| 5; 6; 7 |]
    (Placement.receiver_ranks ~sender ~receiver ~bytes:100.)

let test_placement_identical_sets () =
  let s = Procset.of_list [ 2; 3; 4 ] in
  let place = Placement.receiver_ranks ~sender:s ~receiver:s ~bytes:100. in
  Alcotest.(check (array int)) "identity" [| 2; 3; 4 |] place

let test_placement_keeps_shared_proc_local () =
  (* Sender {0,1}, receiver {1,8}: processor 1 holds sender rank 1 (second
     half of the data); placing it at receiver rank 1 keeps that half local. *)
  let sender = Procset.of_list [ 0; 1 ] in
  let receiver = Procset.of_list [ 1; 8 ] in
  let place = Placement.receiver_ranks ~sender ~receiver ~bytes:100. in
  Alcotest.(check (array int)) "shared proc aligned" [| 8; 1 |] place

let qcheck_placement_is_permutation =
  QCheck.Test.make ~count:300 ~name:"placement is a permutation of receivers"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 10) (int_bound 15))
        (list_of_size Gen.(1 -- 10) (int_bound 15)))
    (fun (s, r) ->
      QCheck.assume (s <> [] && r <> []);
      let sender = Procset.of_list s and receiver = Procset.of_list r in
      let place = Placement.receiver_ranks ~sender ~receiver ~bytes:1000. in
      List.sort compare (Array.to_list place) = Procset.to_list receiver)

let qcheck_placement_no_worse_than_natural =
  QCheck.Test.make ~count:300
    ~name:"placement keeps at least as many bytes local as natural order"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 8) (int_bound 11))
        (list_of_size Gen.(1 -- 8) (int_bound 11)))
    (fun (s, r) ->
      QCheck.assume (s <> [] && r <> []);
      let sender = Procset.of_list s and receiver = Procset.of_list r in
      let bytes = 840. in
      let p = Procset.size sender and q = Procset.size receiver in
      let entries = Block.comm_matrix ~amount:bytes ~senders:p ~receivers:q in
      let local place =
        List.fold_left
          (fun acc (i, j, v) ->
            if Procset.nth sender i = place.(j) then acc +. v else acc)
          0. entries
      in
      let natural = Array.of_list (Procset.to_list receiver) in
      let optimized = Placement.receiver_ranks ~sender ~receiver ~bytes in
      local optimized >= local natural -. 1e-9)

(* --- Redistribution ------------------------------------------------------ *)

let test_plan_conservation () =
  let sender = Procset.of_list [ 0; 1; 2 ] in
  let receiver = Procset.of_list [ 2; 3 ] in
  let plan = Redistribution.plan ~sender ~receiver ~bytes:600. () in
  let total = List.fold_left (fun acc t -> acc +. t.Redistribution.bytes) 0. plan in
  checkf "bytes conserved" 600. total;
  checkf "split local/remote" 600.
    (Redistribution.remote_bytes plan +. Redistribution.local_bytes plan)

let test_plan_equal_sets_free () =
  let s = Procset.of_list [ 1; 4 ] in
  let plan = Redistribution.plan ~sender:s ~receiver:s ~bytes:100. () in
  checkf "all local" 100. (Redistribution.local_bytes plan);
  checkf "nothing remote" 0. (Redistribution.remote_bytes plan)

let test_plan_empty_cases () =
  let s = Procset.of_list [ 0 ] in
  Alcotest.(check int) "no bytes, no transfers" 0
    (List.length (Redistribution.plan ~sender:s ~receiver:s ~bytes:0. ()));
  Alcotest.check_raises "empty set"
    (Invalid_argument "Redistribution.plan: empty processor set") (fun () ->
      ignore (Redistribution.plan ~sender:Procset.empty ~receiver:s ~bytes:1. ()))

let flat8 =
  Cluster.make ~name:"flat8" ~topology:(Topology.Flat 8) ~speed_gflops:1. ()

let test_estimate_zero_for_local () =
  let s = Procset.of_list [ 0; 1 ] in
  checkf "same set costs nothing" 0.
    (Redistribution.estimate_between flat8 ~sender:s ~receiver:s ~bytes:1e9)

let test_estimate_single_transfer () =
  let sender = Procset.of_list [ 0 ] and receiver = Procset.of_list [ 1 ] in
  let t =
    Redistribution.estimate_between flat8 ~sender ~receiver ~bytes:1.25e8
  in
  checkf "latency + drain" 1.0002 t

let test_estimate_bottleneck_is_max_link () =
  let sender = Procset.of_list [ 0; 1 ] and receiver = Procset.of_list [ 2 ] in
  let t =
    Redistribution.estimate_between flat8 ~sender ~receiver ~bytes:1.25e8
  in
  checkf "receiver NIC bound" 1.0002 t

let test_estimate_monotone_in_bytes () =
  let sender = Procset.of_list [ 0; 1; 2 ] and receiver = Procset.of_list [ 3; 4 ] in
  let e b = Redistribution.estimate_between flat8 ~sender ~receiver ~bytes:b in
  Alcotest.(check bool) "monotone" true (e 1e9 > e 1e8 && e 1e8 > 0.)

let qcheck_plan_conservation =
  QCheck.Test.make ~count:300 ~name:"plans conserve bytes for any set pair"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 8) (int_bound 7))
        (list_of_size Gen.(1 -- 8) (int_bound 7)))
    (fun (s, r) ->
      QCheck.assume (s <> [] && r <> []);
      let sender = Procset.of_list s and receiver = Procset.of_list r in
      let plan = Redistribution.plan ~sender ~receiver ~bytes:4200. () in
      let total =
        List.fold_left (fun acc t -> acc +. t.Redistribution.bytes) 0. plan
      in
      Float.abs (total -. 4200.) < 1e-6)

let qcheck_estimate_nonnegative =
  QCheck.Test.make ~count:200 ~name:"estimates are finite and non-negative"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 6) (int_bound 7))
        (list_of_size Gen.(1 -- 6) (int_bound 7)))
    (fun (s, r) ->
      QCheck.assume (s <> [] && r <> []);
      let sender = Procset.of_list s and receiver = Procset.of_list r in
      let e =
        Redistribution.estimate_between flat8 ~sender ~receiver ~bytes:1e8
      in
      e >= 0. && Float.is_finite e)

let cabinets3x4 =
  Cluster.make ~name:"cab3x4"
    ~topology:(Topology.Cabinets { cabinets = 3; per_cabinet = 4 })
    ~speed_gflops:1. ()

(* [estimate_between] prices a redistribution without building its plan;
   [estimate] of the plan is the oracle, compared bit for bit. Set pairs:
   arbitrary (mostly overlapping), equal, disjoint, a one-processor
   receiver, and two one-processor sets. *)
let qcheck_estimate_between_is_estimate_of_plan =
  QCheck.Test.make ~count:2000
    ~name:"estimate_between is estimate of the plan, bit for bit"
    QCheck.(
      quad (int_range 0 2) (int_range 0 4)
        (pair
           (list_of_size Gen.(1 -- 16) (int_bound 1000))
           (list_of_size Gen.(1 -- 16) (int_bound 1000)))
        (int_range 0 5))
    (fun (ci, mode, (s, r), bi) ->
      let cluster = [| flat8; cabinets3x4; Cluster.grelon |].(ci) in
      let n = Cluster.n_procs cluster in
      let set l = Procset.of_list (List.map (fun x -> x mod n) l) in
      let one l = Procset.of_list [ List.hd l mod n ] in
      let sender = if mode = 4 then one s else set s in
      let receiver =
        match mode with
        | 1 -> sender
        | 2 ->
            let d = Procset.diff (set r) sender in
            if Procset.is_empty d then set r else d
        | 3 | 4 -> one r
        | _ -> set r
      in
      let bytes = [| 0.; 1.; 4200.; 8e6; 1.25e8; 9.68e8 |].(bi) in
      let got = Redistribution.estimate_between cluster ~sender ~receiver ~bytes in
      let want =
        Redistribution.estimate cluster
          (Redistribution.plan ~sender ~receiver ~bytes ())
      in
      if Int64.bits_of_float got <> Int64.bits_of_float want then
        QCheck.Test.fail_reportf "%s %a -> %a, %g bytes: %h, plan says %h"
          cluster.Cluster.name Procset.pp sender Procset.pp receiver bytes got
          want
      else true)

let () =
  Alcotest.run "rats_redist"
    [
      ( "block",
        [
          Alcotest.test_case "interval" `Quick test_interval;
          Alcotest.test_case "Table I exact" `Quick test_table1_exact;
          Alcotest.test_case "identity distribution" `Quick
            test_comm_matrix_identity;
          Alcotest.test_case "row and column sums" `Quick test_comm_matrix_sums;
          Alcotest.test_case "overlap agrees with matrix" `Quick
            test_overlap_matches_matrix;
          qcheck qcheck_comm_matrix_conservation;
          qcheck qcheck_comm_matrix_banded;
        ] );
      ( "placement",
        [
          Alcotest.test_case "disjoint -> natural" `Quick
            test_placement_disjoint_natural;
          Alcotest.test_case "identical sets" `Quick test_placement_identical_sets;
          Alcotest.test_case "shared proc kept local" `Quick
            test_placement_keeps_shared_proc_local;
          qcheck qcheck_placement_is_permutation;
          qcheck qcheck_placement_no_worse_than_natural;
        ] );
      ( "redistribution",
        [
          Alcotest.test_case "conservation" `Quick test_plan_conservation;
          Alcotest.test_case "equal sets free" `Quick test_plan_equal_sets_free;
          Alcotest.test_case "empty cases" `Quick test_plan_empty_cases;
          Alcotest.test_case "local estimate zero" `Quick
            test_estimate_zero_for_local;
          Alcotest.test_case "single transfer" `Quick test_estimate_single_transfer;
          Alcotest.test_case "bottleneck link" `Quick
            test_estimate_bottleneck_is_max_link;
          Alcotest.test_case "monotone in bytes" `Quick
            test_estimate_monotone_in_bytes;
          qcheck qcheck_plan_conservation;
          qcheck qcheck_estimate_nonnegative;
          qcheck qcheck_estimate_between_is_estimate_of_plan;
        ] );
    ]
