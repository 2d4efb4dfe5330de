(* Quickstart: build a tiny workload with the DSL, run it under each of the
   paper's four region-selection policies, and print the metrics that drive
   the paper's evaluation.

   The program is a hot loop that calls a helper (declared first, so the
   call is a backward branch as in the paper's Figure 2) and a cold error
   path, roughly:

     while (i < N) { if (rare) cold(); sum += helper(i); }           *)

module Builder = Regionsel_workload.Builder
module Behavior = Regionsel_workload.Behavior
module Simulator = Regionsel_engine.Simulator
module Run_metrics = Regionsel_metrics.Run_metrics
module Stats = Regionsel_engine.Stats
module Policies = Regionsel_core.Policies
module Table = Regionsel_report.Table

let image =
  let b = Builder.create () in
  (* Helper first: lowest addresses, so calls to it are backward. *)
  Builder.func b "helper";
  Builder.block b ~size:6 Builder.Return;
  Builder.func b "cold";
  Builder.block b ~size:20 Builder.Return;
  Builder.func b "main";
  Builder.block b ~size:3 Builder.Fallthrough;
  Builder.block b ~label:"loop" ~size:4
    (Builder.Cond ("rare_path", Behavior.Bernoulli 0.002));
  Builder.block b ~label:"body" ~size:5 (Builder.Call "helper");
  Builder.block b ~size:4 (Builder.Cond ("loop", Behavior.Loop 1000));
  Builder.block b ~size:2 Builder.Halt;
  Builder.block b ~label:"rare_path" ~size:3 (Builder.Call "cold");
  Builder.block b ~size:2 (Builder.Jump "body");
  Builder.compile b ~name:"quickstart" ~entry:"main"

let () =
  print_endline "quickstart: one hot interprocedural loop, four policies\n";
  let rows =
    List.map
      (fun (name, policy) ->
        let result = Simulator.run ~policy ~max_steps:400_000 image in
        let m = Run_metrics.of_result result in
        [
          name;
          string_of_int m.Run_metrics.n_regions;
          Table.fmt_pct m.Run_metrics.hit_rate;
          string_of_int m.Run_metrics.code_expansion;
          string_of_int m.Run_metrics.n_stubs;
          string_of_int m.Run_metrics.stats.Stats.region_transitions;
          Table.fmt_pct m.Run_metrics.spanned_cycle_ratio;
          string_of_int m.Run_metrics.cover_90;
        ])
      Policies.paper
  in
  Table.print
    ~header:
      [ "policy"; "regions"; "hit rate"; "expansion"; "stubs"; "transitions"; "cyclic"; "cover90" ]
    rows;
  print_endline
    "\nExpected shape: LEI spans the call-containing cycle in one trace (fewer\n\
     regions/stubs/transitions than NET); the combined policies merge the rare\n\
     rejoining path into the hot region.";
  (* Show the actual regions LEI selected. *)
  let result = Simulator.run ~policy:Policies.lei ~max_steps:400_000 image in
  let regions = Regionsel_engine.Code_cache.regions result.Simulator.ctx.Regionsel_engine.Context.cache in
  print_endline "\nLEI regions:";
  List.iter (fun r -> Format.printf "%a@." Regionsel_engine.Region.pp r) regions
