open Regionsel_isa
module Cover = Regionsel_metrics.Cover
module Exit_domination = Regionsel_metrics.Exit_domination
module Aggregate = Regionsel_metrics.Aggregate
module Run_metrics = Regionsel_metrics.Run_metrics
module Region = Regionsel_engine.Region
module Edge_profile = Regionsel_engine.Edge_profile
module Policies = Regionsel_core.Policies
open Fixtures

let mk start size term = Block.make ~start ~size ~term

let region_with_execution ~id ~start ~executed =
  let b = mk start 4 Terminator.Return in
  let r =
    Region.of_spec ~id ~selected_at:id ~program:(grid_program ())
      (Region.spec_of_path ~kind:Region.Trace { Region.blocks = [ b ]; final_next = None })
  in
  Region.record_run r ~insts:executed ~cycles:0;
  r

(* Cover sets *)

let cover_exact () =
  let regions =
    [
      region_with_execution ~id:0 ~start:0 ~executed:500;
      region_with_execution ~id:1 ~start:10 ~executed:300;
      region_with_execution ~id:2 ~start:20 ~executed:100;
    ]
  in
  let c = Cover.compute ~x:0.9 ~total_insts:1000 regions in
  check_int "two regions cover 90% with 100 interpreted" 3 c.Cover.size;
  let c80 = Cover.compute ~x:0.8 ~total_insts:1000 regions in
  check_int "80% needs two" 2 c80.Cover.size;
  check_true "achievable" c80.Cover.achievable;
  check_int "covered" 800 c80.Cover.covered_insts

let cover_unachievable () =
  let regions = [ region_with_execution ~id:0 ~start:0 ~executed:100 ] in
  let c = Cover.compute ~x:0.9 ~total_insts:1000 regions in
  check_true "not achievable" (not c.Cover.achievable);
  check_int "all regions consumed" 1 c.Cover.size

let cover_greedy_order () =
  (* The greedy pick must use the biggest regions first regardless of
     selection order. *)
  let regions =
    [
      region_with_execution ~id:0 ~start:0 ~executed:10;
      region_with_execution ~id:1 ~start:10 ~executed:990;
    ]
  in
  let c = Cover.compute ~x:0.9 ~total_insts:1000 regions in
  check_int "one big region suffices" 1 c.Cover.size

let cover_monotone_in_x () =
  let regions =
    List.init 10 (fun i -> region_with_execution ~id:i ~start:(i * 10) ~executed:100)
  in
  let sizes =
    List.map (fun x -> (Cover.compute ~x ~total_insts:1000 regions).Cover.size)
      [ 0.1; 0.3; 0.5; 0.7; 0.9; 1.0 ]
  in
  check_true "cover size grows with x" (List.sort compare sizes = sizes)

let cover_invalid_x () =
  check_true "x out of range rejected"
    (try
       ignore (Cover.compute ~x:1.5 ~total_insts:100 []);
       false
     with Invalid_argument _ -> true)

(* Exit domination on a constructed scenario. *)

let domination_scenario () =
  (* R = [a], exits from a to s_entry; S = [s]; edge profile says a is the
     only executed predecessor of s. *)
  let a = mk 0 4 (Terminator.Cond 10) in
  let s = mk 10 6 Terminator.Return in
  let r =
    Region.of_spec ~id:0 ~selected_at:0 ~program:(grid_program ())
      (Region.spec_of_path ~kind:Region.Trace { Region.blocks = [ a ]; final_next = None })
  in
  let s_region =
    Region.of_spec ~id:1 ~selected_at:1 ~program:(grid_program ())
      (Region.spec_of_path ~kind:Region.Trace { Region.blocks = [ s ]; final_next = None })
  in
  Region.record_exit r ~from:0 ~tgt:10;
  let edges = edge_profile () in
  Edge_profile.record edges ~src:0 ~dst:10;
  let summary =
    Exit_domination.analyze ~regions:[ r; s_region ] ~preds:(Edge_profile.preds edges)
  in
  check_int "one dominated region" 1 summary.Exit_domination.n_dominated;
  (match summary.Exit_domination.verdicts with
  | [ v ] ->
    check_int "S is dominated" 1 v.Exit_domination.dominated.Region.id;
    check_int "R dominates" 0 v.Exit_domination.dominator.Region.id;
    check_int "no shared blocks" 0 v.Exit_domination.dup_insts
  | _ -> Alcotest.fail "expected exactly one verdict");
  check_true "fraction is half" (abs_float (summary.Exit_domination.dominated_fraction -. 0.5) < 1e-9)

let domination_needs_selection_order () =
  (* Same scenario, but S selected before R: not dominated. *)
  let a = mk 0 4 (Terminator.Cond 10) in
  let s = mk 10 6 Terminator.Return in
  let r =
    Region.of_spec ~id:1 ~selected_at:1 ~program:(grid_program ())
      (Region.spec_of_path ~kind:Region.Trace { Region.blocks = [ a ]; final_next = None })
  in
  let s_region =
    Region.of_spec ~id:0 ~selected_at:0 ~program:(grid_program ())
      (Region.spec_of_path ~kind:Region.Trace { Region.blocks = [ s ]; final_next = None })
  in
  Region.record_exit r ~from:0 ~tgt:10;
  let edges = edge_profile () in
  Edge_profile.record edges ~src:0 ~dst:10;
  let summary =
    Exit_domination.analyze ~regions:[ r; s_region ] ~preds:(Edge_profile.preds edges)
  in
  check_int "selection order matters" 0 summary.Exit_domination.n_dominated

let domination_blocked_by_second_pred () =
  let a = mk 0 4 (Terminator.Cond 10) in
  let s = mk 10 6 Terminator.Return in
  let r =
    Region.of_spec ~id:0 ~selected_at:0 ~program:(grid_program ())
      (Region.spec_of_path ~kind:Region.Trace { Region.blocks = [ a ]; final_next = None })
  in
  let s_region =
    Region.of_spec ~id:1 ~selected_at:1 ~program:(grid_program ())
      (Region.spec_of_path ~kind:Region.Trace { Region.blocks = [ s ]; final_next = None })
  in
  Region.record_exit r ~from:0 ~tgt:10;
  let edges = edge_profile () in
  Edge_profile.record edges ~src:0 ~dst:10;
  Edge_profile.record edges ~src:50 ~dst:10;
  let summary =
    Exit_domination.analyze ~regions:[ r; s_region ] ~preds:(Edge_profile.preds edges)
  in
  check_int "second executed predecessor blocks domination" 0 summary.Exit_domination.n_dominated

let domination_counts_duplication () =
  (* S shares a block with its dominator. *)
  let a = mk 0 4 (Terminator.Cond 10) in
  let shared = mk 20 5 Terminator.Return in
  let s = mk 10 6 Terminator.Fallthrough in
  let sh2 = mk 16 1 (Terminator.Jump 20) in
  let r =
    Region.of_spec ~id:0 ~selected_at:0 ~program:(grid_program ())
      (Region.spec_of_path ~kind:Region.Trace
         { Region.blocks = [ a; shared ]; final_next = None })
  in
  let s_region =
    Region.of_spec ~id:1 ~selected_at:1 ~program:(grid_program ())
      (Region.spec_of_path ~kind:Region.Trace
         { Region.blocks = [ s; sh2; shared ]; final_next = None })
  in
  Region.record_exit r ~from:0 ~tgt:10;
  let edges = edge_profile () in
  Edge_profile.record edges ~src:0 ~dst:10;
  let summary =
    Exit_domination.analyze ~regions:[ r; s_region ] ~preds:(Edge_profile.preds edges)
  in
  check_int "duplicated instructions counted" 5 summary.Exit_domination.dup_insts

(* Aggregation helpers *)

let aggregate_basics () =
  check_true "ratio" (Aggregate.ratio 3.0 4.0 = 0.75);
  check_true "ratio by zero" (Aggregate.ratio 3.0 0.0 = 0.0);
  check_true "ratio_int" (Aggregate.ratio_int 1 2 = 0.5);
  check_true "mean" (Aggregate.mean [ 1.0; 2.0; 3.0 ] = 2.0);
  check_true "mean empty" (Aggregate.mean [] = 0.0);
  check_true "geomean" (abs_float (Aggregate.geomean [ 1.0; 4.0 ] -. 2.0) < 1e-9);
  check_true "geomean skips nonpositive" (abs_float (Aggregate.geomean [ 0.0; 4.0 ] -. 4.0) < 1e-9);
  Alcotest.(check string) "percent change" "-18.0%" (Aggregate.percent_change 0.82)

(* Run_metrics end-to-end sanity on a real run. *)

let run_metrics_consistency () =
  let result = run Policies.net (figure2 ()) in
  let m = Run_metrics.of_result result in
  check_true "hit rate in range" (m.Run_metrics.hit_rate >= 0.0 && m.Run_metrics.hit_rate <= 1.0);
  check_true "cover no larger than region count" (m.Run_metrics.cover_90 <= m.Run_metrics.n_regions);
  check_true "expansion at least one inst per region"
    (m.Run_metrics.code_expansion >= m.Run_metrics.n_regions);
  check_true "cache estimate consistent"
    (m.Run_metrics.est_cache_bytes
    = (m.Run_metrics.code_expansion * Run_metrics.inst_bytes)
      + (m.Run_metrics.n_stubs * Run_metrics.stub_bytes));
  check_true "spanned ratio in range"
    (m.Run_metrics.spanned_cycle_ratio >= 0.0 && m.Run_metrics.spanned_cycle_ratio <= 1.0)

let qcheck_cover_bounds =
  QCheck.Test.make ~name:"cover size bounded by region count" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 20) (int_range 0 1_000))
    (fun executions ->
      let regions =
        List.mapi (fun i e -> region_with_execution ~id:i ~start:(i * 10) ~executed:e) executions
      in
      let total = max 1 (List.fold_left ( + ) 0 executions) in
      let c = Cover.compute ~x:0.9 ~total_insts:total regions in
      c.Cover.size <= List.length regions)

let suite =
  [
    case "cover exact" cover_exact;
    case "cover unachievable" cover_unachievable;
    case "cover greedy order" cover_greedy_order;
    case "cover monotone in x" cover_monotone_in_x;
    case "cover invalid x" cover_invalid_x;
    case "domination scenario" domination_scenario;
    case "domination needs selection order" domination_needs_selection_order;
    case "domination blocked by second pred" domination_blocked_by_second_pred;
    case "domination counts duplication" domination_counts_duplication;
    case "aggregate basics" aggregate_basics;
    case "run metrics consistency" run_metrics_consistency;
    QCheck_alcotest.to_alcotest qcheck_cover_bounds;
  ]
