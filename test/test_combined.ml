(* Behavioural tests of the trace-combination policies: observation
   counting, install timing relative to the thresholds, and the memory
   gauge (Figure 18's instrument). *)

module Region = Regionsel_engine.Region
module Stats = Regionsel_engine.Stats
module Gauges = Regionsel_engine.Gauges
module Context = Regionsel_engine.Context
module Params = Regionsel_engine.Params
module Simulator = Regionsel_engine.Simulator
module Policies = Regionsel_core.Policies
open Fixtures

let combined_regions result =
  List.filter (fun (r : Region.t) -> r.Region.kind = Region.Combined) (regions_of result)

let install_timing () =
  (* A simple loop: combined NET starts profiling at T_start and combines
     after T_prof observations, so the region appears after
     T_start + T_prof executions of the header — and not a step before.
     Each loop iteration executes the header once. *)
  let params = Params.default in
  let needed = params.Params.combined_net_start + params.Params.combine_t_prof in
  let below = run Policies.combined_net (simple_loop ~trip:needed ()) in
  check_int "no region with one execution missing" 0 (List.length (regions_of below));
  let enough = run Policies.combined_net (simple_loop ~trip:(needed + 1) ()) in
  check_int "region right at the threshold" 1 (List.length (regions_of enough))

let observations_leave_no_residue () =
  (* After combination, the observation store must have returned all its
     bytes: the gauge ends at zero for a program with one hot entry. *)
  let result = run Policies.combined_net (simple_loop ()) in
  let gauges = result.Simulator.ctx.Context.gauges in
  check_int "no stored traces left" 0 (Gauges.observed_bytes gauges);
  check_true "but some memory was used while profiling"
    (Gauges.observed_bytes_high_water gauges > 0)

let memory_high_water_positive_on_suite () =
  List.iter
    (fun name ->
      let spec = Option.get (Regionsel_workload.Suite.find name) in
      let result =
        run ~max_steps:100_000 Policies.combined_lei (Regionsel_workload.Spec.image spec)
      in
      check_true (name ^ " recorded observation memory")
        (Gauges.observed_bytes_high_water result.Simulator.ctx.Context.gauges > 0))
    [ "gzip"; "twolf" ]

let lower_t_prof_still_works () =
  (* Footnote 8's setting. *)
  let params =
    { Params.default with Params.combine_t_prof = 5; combine_t_min = 2; combined_net_start = 45 }
  in
  let result = run ~params Policies.combined_net (figure4 ()) in
  check_true "combined regions selected" (combined_regions result <> []);
  let merged =
    List.exists
      (fun r -> Region.mem_block r 0x1005 && Region.mem_block r 0x1009)
      (combined_regions result)
  in
  check_true "unbiased arms still merged with T_prof=5" merged

let t_min_one_takes_everything () =
  let params = { Params.default with Params.combine_t_min = 1 } in
  let result = run ~params Policies.combined_net (figure4 ~p_first:0.2 ()) in
  (* With T_min = 1 even a 20% arm observed once is kept. *)
  check_true "rare arm included at T_min=1"
    (List.exists (fun r -> Region.mem_block r 0x1009) (combined_regions result))

let combined_regions_have_splits () =
  let result = run Policies.combined_net (figure4 ()) in
  match combined_regions result with
  | r :: _ ->
    (* The unbiased block A must keep both internal successors. *)
    check_true "taken side internal" (Region.has_edge r ~src:0x1002 ~dst:0x1009);
    check_true "fall side internal" (Region.has_edge r ~src:0x1002 ~dst:0x1005)
  | [] -> Alcotest.fail "expected a combined region"

let combination_improves_executed_cycles () =
  (* Control stays in the merged region regardless of the unbiased
     direction, so nearly every region execution completes the cycle. *)
  let module Run_metrics = Regionsel_metrics.Run_metrics in
  let m policy = Run_metrics.of_result (run policy (figure4 ())) in
  let base = m Policies.net and combined = m Policies.combined_net in
  check_true "executed-cycle ratio improves a lot"
    (combined.Run_metrics.executed_cycle_ratio
    > base.Run_metrics.executed_cycle_ratio +. 0.3)

let suite =
  [
    case "install timing" install_timing;
    case "observations leave no residue" observations_leave_no_residue;
    case "memory high water positive on suite" memory_high_water_positive_on_suite;
    case "lower T_prof still works" lower_t_prof_still_works;
    case "T_min=1 takes everything" t_min_one_takes_everything;
    case "combined regions have splits" combined_regions_have_splits;
    case "combination improves executed cycles" combination_improves_executed_cycles;
  ]
