(* The invariant sanitizer and its differential fuzz oracle: checked runs
   are pure observation (identical metrics), injected corruption is caught
   and shrinks to a tiny reproducer, and the fuzz matrix is clean. *)

module Check = Regionsel_check.Check
module Fuzz = Regionsel_check.Fuzz
module Simulator = Regionsel_engine.Simulator
module Stats = Regionsel_engine.Stats
module Params = Regionsel_engine.Params
module Policies = Regionsel_core.Policies
module Run_metrics = Regionsel_metrics.Run_metrics
open Fixtures

(* Acceptance: the sanitizer's self-test — a deliberate FIFO/dispatch
   desynchronization behind the hidden [break_at] hook — is caught, and
   greedy shrinking lands the reproducing step budget at or under 20. *)
let self_test_catches_and_shrinks () =
  match Fuzz.self_test () with
  | Error msg -> Alcotest.fail msg
  | Ok budget ->
    check_true
      (Printf.sprintf "shrunk budget %d within the 20-step bound" budget)
      (budget <= 20)

(* A checked run is pure observation: same seed, same params, identical
   metrics to the plain simulator — the checker only adds the option of
   raising. *)
let checked_run_preserves_metrics () =
  let image = Fuzz.image_of_genome [ 5; 17; 23 ] in
  let params = { Params.default with Params.faults = Params.fault_profile "mixed" } in
  let snap (r : Simulator.result) =
    let s = r.Simulator.stats in
    ( Stats.total_insts s,
      s.Stats.dispatches,
      s.Stats.region_transitions,
      s.Stats.installs,
      s.Stats.faults_injected )
  in
  let plain =
    Simulator.run ~params ~seed:9L ~policy:Policies.combined_lei ~max_steps:8_000 image
  in
  let checked =
    Check.checked_run ~params ~seed:9L ~audit_every:1 ~policy:Policies.combined_lei
      ~max_steps:8_000 image
  in
  check_true "checked metrics identical" (snap plain = snap checked)

(* A checked cell prints the plain cell's metrics JSON byte for byte,
   clean and under faults: the sanitizer audits spans with a recorder of
   its own, but reports telemetry only from one the caller passed in. *)
let checked_json_is_plain_json () =
  let image = Regionsel_workload.Spec.image (Option.get (Regionsel_workload.Suite.find "gzip")) in
  let json (r : Simulator.result) = Run_metrics.to_json (Run_metrics.of_result r) in
  List.iter
    (fun (policy, what, faults) ->
      let params = { Params.default with Params.faults } in
      let plain = Simulator.run ~params ~seed:1L ~policy ~max_steps:30_000 image in
      let checked = Check.checked_run ~params ~seed:1L ~policy ~max_steps:30_000 image in
      Alcotest.(check string) ("checked " ^ what ^ " JSON") (json plain) (json checked))
    [ (Policies.net, "clean", None); (Policies.combined_lei, "mixed", Params.fault_profile "mixed") ]

(* A checked run saves the plain run's snapshot byte for byte: the
   audit's private recorder adds no telemetry section.  The checked
   snapshot restores to the plain uninterrupted run. *)
let checked_snapshot_is_plain_snapshot () =
  let module Persist = Regionsel_persist.Persist in
  let spec = Option.get (Regionsel_workload.Suite.find "gzip") in
  let image = Regionsel_workload.Spec.image spec in
  let policy = Policies.net and name = "net" and seed = 1L in
  let json (r : Simulator.result) = Run_metrics.to_json (Run_metrics.of_result r) in
  let save_at (sim, finish) =
    Simulator.advance sim ~upto:15_000;
    let bytes = Persist.encode ~seed ~policy:name (Simulator.internals sim) in
    (bytes, finish ())
  in
  let plain_bytes, plain =
    let sim = Simulator.create ~seed ~policy ~max_steps:30_000 image in
    save_at (sim, fun () -> Simulator.finish sim)
  in
  let checked_bytes, _ = save_at (Check.create ~seed ~policy ~max_steps:30_000 image) in
  check_int "same snapshot size" (Bytes.length plain_bytes) (Bytes.length checked_bytes);
  check_true "checked snapshot equals the plain one" (Bytes.equal plain_bytes checked_bytes);
  let restored =
    Simulator.run ~seed ~policy ~max_steps:30_000 image
      ~restore:(fun internals ->
        check_true "clean restore"
          (Persist.clean (Persist.decode_into checked_bytes ~seed ~policy:name internals)))
  in
  Alcotest.(check string) "restored run is the plain run" (json plain) (json restored)

(* The audit must also hold along the eviction path, which the fuzz matrix
   (unbounded caches) does not exercise. *)
let checked_run_survives_bounded_cache () =
  let image = Fuzz.image_of_genome [ 101; 202; 303 ] in
  List.iter
    (fun eviction ->
      let params =
        {
          Params.default with
          Params.faults = Params.fault_profile "pressure";
          cache_capacity_bytes = Some 600;
          cache_eviction = eviction;
        }
      in
      ignore
        (Check.checked_run ~params ~audit_every:1 ~policy:Policies.combined_net
           ~max_steps:8_000 image))
    [ Params.Evict_oldest; Params.Flush_all ]

(* Two fuzz seeds swept across every policy x fault profile stay
   violation-free (the CI job runs more seeds with a bigger budget). *)
let fuzz_matrix_clean () =
  List.iter
    (fun seed ->
      match Fuzz.run_seed ~max_steps:1_500 seed with
      | Some (c, f), _ ->
        Alcotest.failf "seed %d: %s fails: %s" seed (Fuzz.cli_line c)
          (Check.violation_to_string f)
      | None, n -> check_true "cases ran" (n > 0))
    [ 1; 2 ]

(* [audit_cache] directly: a healthy post-run cache passes, and clearing
   one live region's entry slot from the dispatch array (leaving its FIFO
   element in place) is convicted by the FIFO accounting rule. *)
let audit_convicts_desynced_index () =
  let module Code_cache = Regionsel_engine.Code_cache in
  let module Context = Regionsel_engine.Context in
  let module Image = Regionsel_workload.Image in
  let image = Fuzz.image_of_genome [ 1; 6 ] in
  let result = run ~max_steps:8_000 Policies.net image in
  let cache = result.Simulator.ctx.Context.cache in
  let program = image.Image.program in
  Check.audit_cache ~program cache ~step:0;
  check_true "a live region existed to corrupt"
    (Code_cache.unsafe_corrupt_for_tests cache);
  match Check.audit_cache ~program cache ~step:42 with
  | () -> Alcotest.fail "audit passed a desynchronized cache"
  | exception Check.Check_violation v ->
    check_int "violation carries the audit step" 42 v.Check.step;
    Alcotest.(check string) "convicted by the FIFO accounting rule" "fifo-accounting" v.Check.rule

(* Cached code that links: perlbmk under BOA forms a score of regions
   within a few thousand steps and then runs mostly from the cache,
   crossing from region to region through linked exits without leaving
   the cached-mode loop.  The observer runs inside that loop, so the
   "region-position" rule checks the believed node at every step across
   every linked exit, and "insts-accounting" checks the counters the
   loop stores back. *)
let checked_run_follows_linked_exits () =
  let spec = Option.get (Regionsel_workload.Suite.find "perlbmk") in
  let image = Regionsel_workload.Spec.image spec in
  let plain = Simulator.run ~seed:1L ~policy:Policies.boa ~max_steps:30_000 image in
  let checked = Check.checked_run ~seed:1L ~policy:Policies.boa ~max_steps:30_000 image in
  let s = checked.Simulator.stats in
  check_true "linked exits taken" (s.Stats.link_hits > 1_000);
  check_true "most steps cached" (2 * s.Stats.node_steps > s.Stats.steps);
  check_true "checked counters identical" (plain.Simulator.stats = s)

let suite =
  [
    case "self-test break caught and shrunk" self_test_catches_and_shrinks;
    case "checked run preserves metrics" checked_run_preserves_metrics;
    case "checked run prints the plain metrics JSON" checked_json_is_plain_json;
    case "checked run saves the plain snapshot" checked_snapshot_is_plain_snapshot;
    case "checked run survives bounded cache" checked_run_survives_bounded_cache;
    case "checked run follows linked exits" checked_run_follows_linked_exits;
    case "fuzz matrix clean" fuzz_matrix_clean;
    case "audit convicts desynced index" audit_convicts_desynced_index;
  ]
