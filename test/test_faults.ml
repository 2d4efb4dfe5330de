(* Fault injection and recovery: deterministic schedules, invalidation and
   blacklist counters, async exits, the bailout watchdog, and the
   degradation/recovery behaviour the bench fault section asserts. *)

module Spec = Regionsel_workload.Spec
module Suite = Regionsel_workload.Suite
module Image = Regionsel_workload.Image
module Simulator = Regionsel_engine.Simulator
module Faults = Regionsel_engine.Faults
module Params = Regionsel_engine.Params
module Stats = Regionsel_engine.Stats
module Run_metrics = Regionsel_metrics.Run_metrics
module Policies = Regionsel_core.Policies
open Fixtures

let with_faults ?(base = Params.default) profile = { base with Params.faults = Some profile }

(* A profile sized for 100k-step test runs: SMC bursts at 10k, 40k and 70k
   leave a quiet tail to recover in. *)
let smc_profile =
  {
    Params.no_faults with
    Params.first_fault_step = 10_000;
    smc_period = 30_000;
    smc_span_blocks = 4;
  }

let run_faulty ?(policy = "net") ?(seed = 1L) ?(max_steps = 100_000) ~profile image =
  Simulator.run
    ~params:(with_faults profile)
    ~seed
    ~policy:(Option.get (Policies.find policy))
    ~max_steps image

(* Schedule construction *)

let schedule_is_exact () =
  let image = figure3 () in
  let profile =
    { Params.no_faults with Params.first_fault_step = 50; smc_period = 100; smc_span_blocks = 1 }
  in
  let f =
    Faults.create ~profile ~seed:1L ~program:image.Image.program ~max_steps:400
  in
  check_int "four events" 4 (Faults.n_events f);
  let steps = ref [] in
  while Faults.next_step f < max_int do
    steps := Faults.next_step f :: !steps;
    (match Faults.pop f with
    | Faults.Smc_write _ -> ()
    | _ -> Alcotest.fail "expected an SMC event");
    ()
  done;
  Alcotest.(check (list int)) "exact periodic steps" [ 50; 150; 250; 350 ] (List.rev !steps)

let schedule_is_deterministic () =
  let image = figure3 () in
  let mk () =
    Faults.create ~profile:(Option.get (Params.fault_profile "mixed")) ~seed:9L
      ~program:image.Image.program ~max_steps:500_000
  in
  let a = mk () and b = mk () in
  check_int "same length" (Faults.n_events a) (Faults.n_events b);
  while Faults.next_step a < max_int do
    check_int "same step" (Faults.next_step a) (Faults.next_step b);
    let ea = Faults.pop a and eb = Faults.pop b in
    Alcotest.(check string) "same event" (Faults.label ea) (Faults.label eb)
  done

(* End-to-end fault runs *)

let fault_runs_are_deterministic () =
  let spec = Option.get (Suite.find "gzip") in
  let image = Spec.image spec in
  let m () = Run_metrics.of_result (run_faulty ~policy:"lei" ~profile:smc_profile image) in
  let a = m () and b = m () in
  if a <> b then Alcotest.fail "two identical fault runs diverged"

let counters_populated () =
  let result = run_faulty ~profile:smc_profile (figure4 ()) in
  let m = Run_metrics.of_result result in
  check_true "faults injected" (m.Run_metrics.stats.Stats.faults_injected > 0);
  check_true "regions invalidated" (m.Run_metrics.invalidations > 0);
  check_true "invalidated entries blacklisted" (m.Run_metrics.blacklisted_high_water > 0);
  match result.Simulator.fault_log with
  | None -> Alcotest.fail "fault run must carry a log"
  | Some log ->
    check_int "log records every event" m.Run_metrics.stats.Stats.faults_injected
      (List.length (List.filter (fun (_, l) -> l <> "bailout") log.Faults.events));
    check_true "watchdog sampled the run" (List.length log.Faults.samples > 10)

let clean_run_has_no_log () =
  let result = run Policies.net (figure3 ()) in
  check_true "no fault log on clean runs" (result.Simulator.fault_log = None);
  check_int "no faults" 0 result.Simulator.stats.Stats.faults_injected

let async_exits_counted () =
  let profile =
    { Params.no_faults with Params.first_fault_step = 5_000; async_exit_period = 2_000 }
  in
  let result = run_faulty ~profile (simple_loop ~trip:200_000 ()) in
  check_true "async exits left region mode"
    (result.Simulator.stats.Stats.async_exits > 0);
  (* A spurious exit retires nothing, so the system re-enters the still-live
     region and the hit rate stays high. *)
  check_true "hit rate survives async exits"
    ((Run_metrics.of_result result).Run_metrics.hit_rate > 0.9)

let translation_failures_surface_as_rejects () =
  let profile =
    {
      Params.no_faults with
      Params.first_fault_step = 100;
      translation_failure_period = 10_000;
      translation_failure_window = 2_000;
    }
  in
  let result = run_faulty ~profile ~max_steps:50_000 (figure4 ()) in
  let m = Run_metrics.of_result result in
  check_true "rejected installs counted" (m.Run_metrics.stats.Stats.install_rejects > 0);
  check_true "run still makes progress" (m.Run_metrics.hit_rate > 0.0)

(* Per-burst recovery: after every flush/invalidation burst the windowed
   cached-instruction share must climb back to >= 80% of its pre-burst
   level before the next burst (the bench fault section's acceptance
   criterion, asserted here on one workload per policy). *)
let recovers_after_bursts () =
  List.iter
    (fun policy ->
      let result = run_faulty ~policy ~profile:smc_profile (figure4 ~iters:200_000 ()) in
      let log = Option.get result.Simulator.fault_log in
      let samples = Array.of_list log.Faults.samples in
      let burst_steps =
        List.filter_map
          (fun (s, l) -> if l = "smc" || l = "shock" || l = "bailout" then Some s else None)
          log.Faults.events
      in
      (* Coalesce cascades — a burst plus the watchdog bailout it provokes
         is one disruption, and recovery is only expected after its last
         event (plus the bailout cooldown it may impose). *)
      let gap =
        Params.default.Params.bailout_cooldown + Params.default.Params.watchdog_window
      in
      let bursts =
        List.fold_left
          (fun groups s ->
            match groups with
            | (first, last) :: rest when s - last <= gap -> (first, s) :: rest
            | _ -> (s, s) :: groups)
          [] burst_steps
        |> List.rev
      in
      List.iteri
        (fun i (first, last) ->
          let next_burst =
            match List.nth_opt bursts (i + 1) with Some (f, _) -> f | None -> max_int
          in
          let pre =
            Array.fold_left
              (fun acc (s, share) ->
                if s < first && s >= first - (3 * Params.default.Params.watchdog_window) then
                  max acc share
                else acc)
              0.0 samples
          in
          let post =
            Array.fold_left
              (fun acc (s, share) ->
                if s > last && s <= next_burst then max acc share else acc)
              0.0 samples
          in
          let has_tail = Array.exists (fun (s, _) -> s > last && s <= next_burst) samples in
          if has_tail && pre > 0.0 && post < 0.8 *. pre then
            Alcotest.failf "%s: share %.3f after burst at %d never recovered (pre %.3f)"
              policy post first pre)
        bursts)
    [ "net"; "lei"; "combined-lei" ]

let watchdog_bails_out_under_thrash () =
  (* SMC writes every 400 steps spanning most of the program: regions die
     as fast as they form, the windowed share collapses, and the watchdog
     must flush and fall back to interpretation. *)
  let profile =
    {
      Params.no_faults with
      Params.first_fault_step = 4_000;
      smc_period = 400;
      smc_span_blocks = 64;
    }
  in
  let params =
    { (with_faults profile) with Params.blacklist_base_cooldown = 2_000 }
  in
  let result =
    Simulator.run ~params ~seed:1L
      ~policy:(Option.get (Policies.find "net"))
      ~max_steps:100_000
      (simple_loop ~trip:200_000 ())
  in
  let m = Run_metrics.of_result result in
  check_true "watchdog bailed out" (m.Run_metrics.stats.Stats.bailouts > 0);
  check_true "cooldown steps counted" (m.Run_metrics.stats.Stats.recovery_steps > 0);
  check_true "bailout flushed the cache" (m.Run_metrics.cache_flushes > 0)

(* Crash events interleave with every other stream without disturbing the
   schedule invariants: construction stays deterministic and the merged
   schedule stays step-sorted. *)
let crash_schedule_deterministic_and_sorted () =
  let image = figure3 () in
  let profile =
    {
      (Option.get (Params.fault_profile "mixed")) with
      Params.first_fault_step = 5_000;
      crash_period = 17_000;
    }
  in
  let mk () =
    Faults.create ~profile ~seed:11L ~program:image.Image.program ~max_steps:400_000
  in
  let a = mk () and b = mk () in
  check_int "same length" (Faults.n_events a) (Faults.n_events b);
  check_true "schedule not empty" (Faults.n_events a > 0);
  let crashes = ref 0 and others = ref 0 and last = ref min_int in
  while Faults.next_step a < max_int do
    let step = Faults.next_step a in
    check_true "schedule is step-sorted" (step >= !last);
    last := step;
    check_int "same step as twin" step (Faults.next_step b);
    let ea = Faults.pop a and eb = Faults.pop b in
    Alcotest.(check string) "same event as twin" (Faults.label ea) (Faults.label eb);
    match ea with Faults.Crash -> incr crashes | _ -> incr others
  done;
  check_true "crash events scheduled" (!crashes > 1);
  check_true "other streams still fire alongside crashes" (!others > 0)

(* An end-to-end crash run: the warm state dies and re-forms, and doing it
   twice yields identical metrics (crash recovery is as reproducible as a
   clean run). *)
let crash_run_recovers_deterministically () =
  let profile = Option.get (Params.fault_profile "crash") in
  let profile = { profile with Params.first_fault_step = 20_000; crash_period = 30_000 } in
  let spec = Option.get (Suite.find "gzip") in
  let image = Spec.image spec in
  let m () =
    Run_metrics.of_result (run_faulty ~policy:"net" ~max_steps:120_000 ~profile image)
  in
  let a = m () and b = m () in
  if a <> b then Alcotest.fail "two identical crash runs diverged";
  check_true "crashes were injected" (a.Run_metrics.stats.Stats.faults_injected >= 3);
  check_true "cache was flushed by crashes" (a.Run_metrics.cache_flushes >= 3);
  check_true "regions re-formed after crashes" (a.Run_metrics.n_regions > 0)

let suite =
  [
    case "schedule is exact" schedule_is_exact;
    case "schedule is deterministic" schedule_is_deterministic;
    case "crash schedule deterministic and step-sorted" crash_schedule_deterministic_and_sorted;
    case "crash run recovers deterministically" crash_run_recovers_deterministically;
    case "fault runs are deterministic" fault_runs_are_deterministic;
    case "counters populated" counters_populated;
    case "clean run has no log" clean_run_has_no_log;
    case "async exits counted" async_exits_counted;
    case "translation failures surface as rejects" translation_failures_surface_as_rejects;
    case "recovers after bursts" recovers_after_bursts;
    case "watchdog bails out under thrash" watchdog_bails_out_under_thrash;
  ]
