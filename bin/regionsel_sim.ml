(* Command-line driver: run any benchmark under any region-selection policy
   and inspect the resulting metrics and regions. *)

module Spec = Regionsel_workload.Spec
module Suite = Regionsel_workload.Suite
module Simulator = Regionsel_engine.Simulator
module Params = Regionsel_engine.Params
module Context = Regionsel_engine.Context
module Code_cache = Regionsel_engine.Code_cache
module Region = Regionsel_engine.Region
module Run_metrics = Regionsel_metrics.Run_metrics
module Stats = Regionsel_engine.Stats
module Policies = Regionsel_core.Policies
module Domain_pool = Regionsel_engine.Domain_pool
module Table = Regionsel_report.Table
module Telemetry = Regionsel_telemetry.Telemetry
module Trace_export = Regionsel_telemetry.Trace_export
module Check = Regionsel_check.Check
module Persist = Regionsel_persist.Persist
module Event_log = Regionsel_persist.Event_log
module Branch_stream = Regionsel_engine.Branch_stream
module Image = Regionsel_workload.Image
module Metrics = Regionsel_obs.Metrics

open Cmdliner

let bench_arg =
  let doc = "Benchmark to simulate (see the list subcommand)." in
  Arg.(required & opt (some string) None & info [ "b"; "bench" ] ~docv:"NAME" ~doc)

let policy_arg =
  let doc = "Region-selection policy: net, lei, combined-net, combined-lei, mojo, boa." in
  Arg.(value & opt string "net" & info [ "p"; "policy" ] ~docv:"POLICY" ~doc)

let steps_arg =
  let doc = "Override the benchmark's default block-step budget." in
  Arg.(value & opt (some int) None & info [ "n"; "steps" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "PRNG seed for branch behaviour." in
  Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc)

let faults_arg =
  let doc =
    "Enable deterministic fault injection with the named profile (mixed, crash, smc, \
     translation, pressure)."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"PROFILE" ~doc)

let save_state_arg =
  let doc =
    "Write a warm-state snapshot of the run to $(docv) (atomically: tmp + fsync + \
     rename).  By default the snapshot is taken after the last step; see --at-step.  \
     Restoring it with --restore-state and continuing is bit-identical to the \
     uninterrupted run."
  in
  Arg.(value & opt (some string) None & info [ "save-state" ] ~docv:"FILE" ~doc)

let at_step_arg =
  let doc =
    "Take the --save-state snapshot the first time the step count reaches $(docv) — at \
     once when the run starts, or resumes with --restore-state, at or past it.  Needs \
     --save-state; $(docv) must be non-negative."
  in
  Arg.(value & opt (some int) None & info [ "at-step" ] ~docv:"N" ~doc)

let restore_state_arg =
  let doc =
    "Restore a warm-state snapshot from $(docv) before the first step.  The snapshot's \
     benchmark shape, seed and policy must match this invocation.  Corrupt sections are \
     dropped with a notice on stderr and re-warm from scratch; a corrupt header aborts \
     with exit code 5."
  in
  Arg.(value & opt (some string) None & info [ "restore-state" ] ~docv:"FILE" ~doc)

let json_arg =
  let doc =
    "Print the run metrics as a single JSON object instead of the human-readable \
     report.  Field order is fixed and floats are lossless, so identical runs produce \
     byte-identical output."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let check_arg =
  let doc =
    "Run under the invariant sanitizer: audit the cache/link/telemetry invariants on \
     every cache mutation and shadow-step a second interpreter as a differential \
     oracle.  Pure observation — the printed metrics are identical with or without it; \
     a violation aborts with a diagnostic and exit code 3."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let trace_out_arg =
  let doc =
    "Record region-lifecycle telemetry and write a Chrome trace_event JSON timeline to \
     $(docv) (load it at ui.perfetto.dev) plus a raw event stream to $(docv).jsonl.  \
     Tracing is pure observation: the printed metrics are identical with or without it."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_out_arg =
  let doc =
    "Sample windowed metrics during the run and write them to $(docv) as JSONL \
     time-series (one record per window per series) plus a scrape-ready Prometheus \
     text snapshot to $(docv).prom.  Sampling is pure observation — the printed \
     metrics are byte-identical with or without it — and the exports are \
     byte-deterministic for a fixed seed.  On a crash (invariant violation or \
     snapshot hard corruption) the last windows are dumped to $(docv).flight.jsonl."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let metrics_window_arg =
  let doc = "Metrics window length in steps (sampled at absolute step multiples)." in
  Arg.(value & opt int Metrics.default_window & info [ "metrics-window" ] ~docv:"N" ~doc)

let status_arg =
  let doc =
    "Print a one-line summary of every closed metrics window to stderr (stdout stays \
     byte-diffable).  Implies metrics sampling even without --metrics-out."
  in
  Arg.(value & flag & info [ "status" ] ~doc)

let lookup_bench name =
  match Suite.find name with
  | Some s -> s
  | None ->
    Printf.eprintf "unknown benchmark %s (known: %s)\n" name (String.concat ", " Suite.names);
    exit 2

let lookup_policy name =
  match Policies.find name with
  | Some p -> p
  | None ->
    Printf.eprintf "unknown policy %s (known: %s)\n" name
      (String.concat ", " (List.map fst Policies.all));
    exit 2

let params_of_faults = function
  | None -> Params.default
  | Some name -> (
    match Params.fault_profile name with
    | Some profile -> { Params.default with Params.faults = Some profile }
    | None ->
      Printf.eprintf "unknown fault profile %s (known: %s)\n" name
        (String.concat ", " (List.map fst Params.fault_profiles));
      exit 2)

(* A run's handle and its finisher: the sanitized pair under [check]. *)
let start ?(check = false) ?(params = Params.default) ?(telemetry = Telemetry.none) ?restore
    ?record ?replay spec policy steps seed =
  let image = Spec.image spec in
  let max_steps = Option.value ~default:spec.Spec.default_steps steps in
  if check then
    Check.create ~params ?telemetry ~seed ?restore
      ?record ?replay ~policy ~max_steps image
  else
    let sim =
      Simulator.create ~params ~seed ~telemetry ?restore ?record ?replay ~policy ~max_steps
        image
    in
    (sim, fun () -> Simulator.finish sim)

(* Step a started run to its end, sampling metrics windows when metered
   and saving once at [save_point] when asked. *)
let drive ?recorder ?save_point (sim, finish) =
  let advance upto =
    match recorder with
    | None -> Simulator.advance sim ~upto
    | Some r -> Metrics.advance r sim ~upto
  in
  Option.iter
    (fun (at, save) ->
      advance at;
      save (Simulator.internals sim))
    save_point;
  advance max_int;
  let result = finish () in
  Option.iter (fun r -> Metrics.finalize r result) recorder;
  result

let simulate ?check ?params ?record spec policy steps seed =
  drive (start ?check ?params ?record spec policy steps seed)

(* Windowed-metrics plumbing, shared by run/matrix/replay.  All notices
   (status lines, export summaries, flight dumps) go to stderr: stdout
   must stay byte-diffable against a metrics-off run. *)
let metrics_recorder ~bench ~policy metrics_out metrics_window status =
  if metrics_out = None && not status then None
  else begin
    if metrics_window <= 0 then begin
      Printf.eprintf "metrics window must be positive (got %d)\n" metrics_window;
      exit 2
    end;
    let notify =
      if status then Some (fun w -> Printf.eprintf "%s\n%!" (Metrics.status_line w))
      else None
    in
    Some
      (Metrics.create ~window:metrics_window ?notify
         ~labels:[ ("tenant", bench); ("policy", policy); ("dispatch", "threaded") ]
         ())
  end

let export_metrics metrics_out windows =
  match metrics_out with
  | None -> ()
  | Some path ->
    Metrics.write_jsonl ~path windows;
    Metrics.write_prometheus ~path:(path ^ ".prom") windows;
    Printf.eprintf "metrics: %d windows -> %s, %s\n%!" (List.length windows) path
      (path ^ ".prom")

(* Crash flight recorder: when a metered run dies on an invariant
   violation or snapshot hard corruption, dump the newest windows plus
   the exact CLI line before the error path takes over. *)
let with_flight_dump recorder metrics_out f =
  match (recorder, metrics_out) with
  | Some r, Some path ->
    (try f ()
     with (Check.Check_violation _ | Persist.Hard_corruption _) as e ->
       let detail =
         match e with
         | Check.Check_violation v -> Check.violation_to_string v
         | Persist.Hard_corruption msg -> "hard corruption: " ^ msg
         | _ -> assert false
       in
       let fpath = path ^ ".flight.jsonl" in
       let n =
         Metrics.flight_dump ~path:fpath
           ~cli:(String.concat " " (Array.to_list Sys.argv))
           ~detail
           (Metrics.newest Metrics.default_flight_keep (Metrics.windows r))
       in
       Printf.eprintf "flight recorder: %d windows -> %s\n%!" n fpath;
       raise e)
  | _ -> f ()

(* Shared by run/record/replay so their stdout is byte-diffable: a replayed
   run must print exactly what the live run printed. *)
let print_metrics ~json (result : Simulator.result) =
  if json then print_endline (Run_metrics.to_json (Run_metrics.of_result result))
  else begin
    Format.printf "%a@." Run_metrics.pp (Run_metrics.of_result result);
    match result.Simulator.fault_log with
    | None -> ()
    | Some log ->
      let module Faults = Regionsel_engine.Faults in
      Format.printf "fault events:@.";
      List.iter (fun (s, l) -> Format.printf "  %8d %s@." s l) log.Faults.events
  end

(* Distinct, documented exit codes: 2 = CLI lookup error, 3 = invariant
   violation, 4 = I/O error, 5 = snapshot hard corruption. *)
let with_error_reporting f =
  try f () with
  | Check.Check_violation v ->
    Printf.eprintf "%s\n%!" (Check.violation_to_string v);
    exit 3
  | Sys_error msg ->
    Printf.eprintf "i/o error: %s\n%!" msg;
    exit 4
  | Unix.Unix_error (err, fn, arg) ->
    Printf.eprintf "i/o error: %s: %s%s\n%!" fn (Unix.error_message err)
      (if arg = "" then "" else " (" ^ arg ^ ")");
    exit 4
  | Persist.Hard_corruption msg ->
    Printf.eprintf "snapshot hard corruption: %s\n%!" msg;
    exit 5

(* Fan independent (spec, x) simulation tasks across domains.  Every run
   allocates its own state, but [Spec.image] is lazy and not thread-safe,
   so force each image here on the calling domain first.  Results come
   back in submission order, so output is identical to a sequential run. *)
let parallel_map_specs f tasks =
  List.iter (fun ((spec : Spec.t), _) -> ignore (Spec.image spec)) tasks;
  Domain_pool.map (fun ((spec : Spec.t), x) -> f spec x) tasks

let run_cmd =
  let run bench policy steps seed faults trace_out check save_state at_step restore_state
      metrics_out metrics_window status json =
    with_error_reporting @@ fun () ->
    (match (at_step, save_state) with
    | Some n, _ when n < 0 ->
      Printf.eprintf "--at-step must be non-negative (got %d)\n" n;
      exit 2
    | Some _, None ->
      Printf.eprintf "--at-step needs --save-state\n";
      exit 2
    | _ -> ());
    let params = params_of_faults faults in
    let policy_name = policy in
    let recorder =
      metrics_recorder ~bench ~policy:policy_name metrics_out metrics_window status
    in
    let telemetry =
      match trace_out with None -> Telemetry.none | Some _ -> Some (Telemetry.create ())
    in
    (* Save/restore notices go to stderr (like trace notices) so stdout
       stays byte-diffable between interrupted and uninterrupted runs. *)
    let save_point =
      Option.map
        (fun path ->
          ( Option.value ~default:max_int at_step,
            fun internals ->
              Persist.save_file ~path ~seed ~policy:policy_name internals;
              Printf.eprintf "snapshot: warm state saved to %s\n%!" path ))
        save_state
    in
    let restored = ref None in
    let restore =
      Option.map
        (fun path (internals : Simulator.internals) ->
          let report = Persist.restore_file ~path ~seed ~policy:policy_name internals in
          List.iter
            (fun (d : Persist.degraded) ->
              Printf.eprintf "snapshot: section %s dropped (%s); re-warming from scratch\n%!"
                d.Persist.section d.Persist.reason)
            report.Persist.degraded;
          if report.Persist.skipped > 0 then
            Printf.eprintf "snapshot: %d unknown/homeless sections skipped\n%!"
              report.Persist.skipped;
          restored := Some (path, report))
        restore_state
    in
    (* The auditor vouches for the restored cache before the first step,
       whether or not --check is on for the rest of the run.  It runs once
       the run exists, because creating it is what reconciles the span
       ledger with the restored cache (a snapshot saved without a trace
       sink has no telemetry section).  The span rules only apply to a
       clean restore: a degraded one may legitimately pair a warm cache
       with a re-warmed (empty) recorder or vice versa. *)
    let audit_restore sim =
      Option.iter
        (fun (path, report) ->
          let internals = Simulator.internals sim in
          let cache = internals.Simulator.int_ctx.Context.cache in
          let telemetry = if Persist.clean report then telemetry else None in
          Check.audit_cache ?telemetry ~program:internals.Simulator.int_ctx.Context.program
            cache ~step:(Code_cache.now cache);
          Printf.eprintf "snapshot: restored %d sections from %s%s\n%!"
            (List.length report.Persist.restored)
            path
            (if Persist.clean report then "" else " (degraded)"))
        !restored
    in
    let result =
      with_flight_dump recorder metrics_out @@ fun () ->
      let ((sim, _) as run) =
        start ~check ~params ~telemetry ?restore (lookup_bench bench) (lookup_policy policy)
          steps seed
      in
      audit_restore sim;
      drive ?recorder ?save_point run
    in
    Option.iter (fun r -> export_metrics metrics_out (Metrics.windows r)) recorder;
    (* Trace notices go to stderr so stdout stays diffable against an
       untraced run (the CI trace-smoke parity check relies on this). *)
    (match telemetry, trace_out with
    | Some t, Some path ->
      Telemetry.finish t ~step:result.Simulator.stats.Regionsel_engine.Stats.steps;
      Trace_export.write_chrome t ~name:(bench ^ "/" ^ policy) ~path;
      Trace_export.write_jsonl t ~path:(path ^ ".jsonl");
      Printf.eprintf "trace: %d events (%d dropped), %d spans -> %s, %s\n%!" (Telemetry.n_emitted t)
        (Telemetry.n_dropped t) (List.length (Telemetry.spans t)) path (path ^ ".jsonl")
    | _ -> ());
    print_metrics ~json result
  in
  let man =
    [
      `S Manpage.s_exit_status;
      `P "0 on success; 2 on an unknown benchmark, policy, fault profile or parameter;";
      `P "3 when --check (or the post-restore audit) finds an invariant violation;";
      `P "4 on an I/O error reading or writing a snapshot or trace;";
      `P "5 when --restore-state finds hard corruption (bad magic, header damage, or a \
          benchmark/seed/policy mismatch).";
    ]
  in
  Cmd.v
    (Cmd.info "run" ~man
       ~doc:
         "Run one benchmark under one policy and print its metrics; optionally save or \
          restore a warm-state snapshot")
    Term.(
      const run $ bench_arg $ policy_arg $ steps_arg $ seed_arg $ faults_arg
      $ trace_out_arg $ check_arg $ save_state_arg $ at_step_arg $ restore_state_arg
      $ metrics_out_arg $ metrics_window_arg $ status_arg $ json_arg)

let record_cmd =
  let run bench policy steps seed faults check events_out json =
    with_error_reporting @@ fun () ->
    let params = params_of_faults faults in
    let spec = lookup_bench bench in
    let events = Branch_stream.recorder () in
    let result =
      simulate ~check ~params ~record:events spec (lookup_policy policy) steps seed
    in
    (* The recording notice goes to stderr: stdout must be byte-diffable
       against a plain run (and against the later replay). *)
    let size =
      Event_log.write_file ~path:events_out ~program:(Spec.image spec).Image.program ~seed
        events
    in
    Printf.eprintf "events: %d branch events (%d bytes) recorded to %s\n%!"
      (Branch_stream.length events) size events_out;
    print_metrics ~json result
  in
  let events_out =
    let doc =
      "Write the run's branch-event log to $(docv) (atomically: tmp + fsync + rename), \
       for later bit-identical replay with the replay subcommand."
    in
    Arg.(required & opt (some string) None & info [ "events-out" ] ~docv:"FILE" ~doc)
  in
  let man =
    [
      `S Manpage.s_exit_status;
      `P "0 on success; 2 on an unknown benchmark, policy or fault profile;";
      `P "3 when --check finds an invariant violation;";
      `P "4 on an I/O error writing the event log.";
    ]
  in
  Cmd.v
    (Cmd.info "record" ~man
       ~doc:
         "Run one benchmark live and record its branch-event stream; stdout is \
          byte-identical to the plain run subcommand")
    Term.(
      const run $ bench_arg $ policy_arg $ steps_arg $ seed_arg $ faults_arg $ check_arg
      $ events_out $ json_arg)

let replay_cmd =
  let run bench policy steps seed faults check events_in metrics_out metrics_window status
      json =
    with_error_reporting @@ fun () ->
    let params = params_of_faults faults in
    let spec = lookup_bench bench in
    let recorder =
      metrics_recorder ~bench ~policy metrics_out metrics_window status
    in
    let events =
      Event_log.read_file ~path:events_in ~program:(Spec.image spec).Image.program ~seed
    in
    Printf.eprintf "events: replaying %d branch events from %s\n%!"
      (Branch_stream.length events) events_in;
    let result =
      with_flight_dump recorder metrics_out @@ fun () ->
      drive ?recorder
        (start ~check ~params ~replay:events spec (lookup_policy policy) steps seed)
    in
    Option.iter (fun r -> export_metrics metrics_out (Metrics.windows r)) recorder;
    print_metrics ~json result
  in
  let events_in =
    let doc =
      "Replay the branch-event log at $(docv) instead of the live interpreter.  The \
       log's benchmark shape and seed must match this invocation; with matching params, \
       policy and budget the metrics are byte-identical to the recorded live run."
    in
    Arg.(required & opt (some string) None & info [ "events-in" ] ~docv:"FILE" ~doc)
  in
  let man =
    [
      `S Manpage.s_exit_status;
      `P "0 on success; 2 on an unknown benchmark, policy or fault profile;";
      `P "3 when --check finds an invariant violation;";
      `P "4 on an I/O error reading the event log;";
      `P "5 when the event log is corrupt (bad magic, checksum or framing damage) or \
          names a different run (benchmark shape or seed mismatch).";
    ]
  in
  Cmd.v
    (Cmd.info "replay" ~man
       ~doc:
         "Re-run the selection/cache engine over a recorded branch-event stream; stdout \
          is byte-identical to the live run that recorded it")
    Term.(
      const run $ bench_arg $ policy_arg $ steps_arg $ seed_arg $ faults_arg $ check_arg
      $ events_in $ metrics_out_arg $ metrics_window_arg $ status_arg $ json_arg)

let regions_cmd =
  let run bench policy steps seed limit =
    let result = simulate (lookup_bench bench) (lookup_policy policy) steps seed in
    let regions = Code_cache.regions result.Simulator.ctx.Context.cache in
    let regions =
      match limit with
      | Some n -> List.filteri (fun i _ -> i < n) regions
      | None -> regions
    in
    List.iter
      (fun (r : Region.t) ->
        Format.printf "%a@.  entries=%d cycles=%d exits=%d insts_exec=%d@.@." Region.pp r
          r.Region.entries r.Region.cycle_iters r.Region.exits r.Region.insts_executed)
      regions
  in
  let limit =
    Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N" ~doc:"Print only N regions.")
  in
  Cmd.v
    (Cmd.info "regions" ~doc:"Dump the regions a policy selected for a benchmark")
    Term.(const run $ bench_arg $ policy_arg $ steps_arg $ seed_arg $ limit)

let profile_cmd =
  let run bench policy steps seed limit =
    let result = simulate (lookup_bench bench) (lookup_policy policy) steps seed in
    let profiles = Regionsel_metrics.Region_profile.of_result result in
    let profiles =
      match limit with Some n -> List.filteri (fun i _ -> i < n) profiles | None -> profiles
    in
    List.iter
      (fun p -> Format.printf "%a@.@." Regionsel_metrics.Region_profile.pp p)
      profiles
  in
  let limit =
    Arg.(
      value & opt (some int) (Some 10)
      & info [ "limit" ] ~docv:"N" ~doc:"Print only the N hottest regions (default 10).")
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Per-region execution profiles, hottest first")
    Term.(const run $ bench_arg $ policy_arg $ steps_arg $ seed_arg $ limit)

let disas_cmd =
  let run bench policy steps seed limit =
    let result = simulate (lookup_bench bench) (lookup_policy policy) steps seed in
    let regions = Code_cache.regions result.Simulator.ctx.Context.cache in
    let regions =
      match limit with Some n -> List.filteri (fun i _ -> i < n) regions | None -> regions
    in
    List.iter
      (fun r -> Format.printf "%a@.@." Regionsel_engine.Emitter.pp (Regionsel_engine.Emitter.emit r))
      regions
  in
  let limit =
    Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N" ~doc:"Print only N regions.")
  in
  Cmd.v
    (Cmd.info "disas" ~doc:"Emit and disassemble the code-cache contents of a run")
    Term.(const run $ bench_arg $ policy_arg $ steps_arg $ seed_arg $ limit)

let matrix_cmd =
  let run bench steps seed faults check metrics_out metrics_window status =
    with_error_reporting @@ fun () ->
    let params = params_of_faults faults in
    let spec = lookup_bench bench in
    (* One recorder per policy run, created and sampled inside its worker
       domain, read back on the main domain after the joins; results come
       back in submission order, so the combined export is deterministic
       (status lines from concurrent runs may interleave on stderr). *)
    let rows =
      parallel_map_specs
        (fun spec (name, policy) ->
          let recorder =
            metrics_recorder ~bench ~policy:name metrics_out metrics_window status
          in
          let result = drive ?recorder (start ~check ~params spec policy steps seed) in
          let m = Run_metrics.of_result result in
          let windows = match recorder with None -> [] | Some r -> Metrics.windows r in
          ( windows,
            [
            name;
            string_of_int m.Run_metrics.n_regions;
            Table.fmt_pct m.Run_metrics.hit_rate;
            string_of_int m.Run_metrics.code_expansion;
            string_of_int m.Run_metrics.n_stubs;
            string_of_int m.Run_metrics.stats.Stats.region_transitions;
            Table.fmt_pct m.Run_metrics.spanned_cycle_ratio;
            Table.fmt_pct m.Run_metrics.executed_cycle_ratio;
            string_of_int m.Run_metrics.cover_90;
            string_of_int m.Run_metrics.counters_high_water;
            Table.fmt_pct m.Run_metrics.exit_dominated_fraction;
            Table.fmt_pct m.Run_metrics.icache_miss_rate;
          ] ))
        (List.map (fun p -> spec, p) Policies.all)
    in
    export_metrics metrics_out (List.concat_map fst rows);
    Table.print
      ~header:
        [
          "policy"; "regions"; "hit"; "expansion"; "stubs"; "transitions"; "cyclic";
          "exec-cyc"; "cover90"; "counters"; "exit-dom"; "icache-miss";
        ]
      (List.map snd rows)
  in
  Cmd.v
    (Cmd.info "matrix" ~doc:"Run one benchmark under every policy")
    Term.(
      const run $ bench_arg $ steps_arg $ seed_arg $ faults_arg $ check_arg
      $ metrics_out_arg $ metrics_window_arg $ status_arg)

let domination_cmd =
  let run bench policy steps seed =
    let result = simulate (lookup_bench bench) (lookup_policy policy) steps seed in
    let module Exit_domination = Regionsel_metrics.Exit_domination in
    let module Edge_profile = Regionsel_engine.Edge_profile in
    let regions = Code_cache.regions result.Simulator.ctx.Context.cache in
    let summary =
      Exit_domination.analyze ~regions ~preds:(Edge_profile.preds result.Simulator.edges)
    in
    List.iter
      (fun (v : Exit_domination.verdict) ->
        Printf.printf "region #%d (entry %s, %d insts) dominated by #%d (entry %s); dup=%d\n"
          v.Exit_domination.dominated.Region.id
          (Regionsel_isa.Addr.to_string v.Exit_domination.dominated.Region.entry)
          v.Exit_domination.dominated.Region.copied_insts v.Exit_domination.dominator.Region.id
          (Regionsel_isa.Addr.to_string v.Exit_domination.dominator.Region.entry)
          v.Exit_domination.dup_insts)
      summary.Exit_domination.verdicts;
    Printf.printf "dominated %d / %d regions; duplicated %d insts\n"
      summary.Exit_domination.n_dominated summary.Exit_domination.n_regions
      summary.Exit_domination.dup_insts
  in
  Cmd.v
    (Cmd.info "domination" ~doc:"Show the exit-domination verdicts for a run")
    Term.(const run $ bench_arg $ policy_arg $ steps_arg $ seed_arg)

let suite_cmd =
  let run steps seed =
    let module Aggregate = Regionsel_metrics.Aggregate in
    let policies = [ "net"; "lei"; "combined-net"; "combined-lei" ] in
    let tasks = Suite.grid policies in
    let metrics =
      parallel_map_specs
        (fun spec p -> Run_metrics.of_result (simulate spec (lookup_policy p) steps seed))
        tasks
    in
    let rows =
      List.map2
        (fun (spec : Spec.t) ms ->
          let m p = List.assoc p (List.combine policies ms) in
          let net = m "net" and lei = m "lei" in
          let cnet = m "combined-net" and clei = m "combined-lei" in
          let r f a b = Table.fmt_float 2 (Aggregate.ratio_int (f a) (f b)) in
          [
            spec.Spec.name;
            Table.fmt_pct net.Run_metrics.hit_rate;
            Table.fmt_pct lei.Run_metrics.hit_rate;
            r (fun m -> m.Run_metrics.code_expansion) lei net;
            r (fun m -> m.Run_metrics.stats.Stats.region_transitions) lei net;
            r (fun m -> m.Run_metrics.cover_90) lei net;
            r (fun m -> m.Run_metrics.counters_high_water) lei net;
            Table.fmt_pct lei.Run_metrics.spanned_cycle_ratio;
            Table.fmt_pct net.Run_metrics.spanned_cycle_ratio;
            r (fun m -> m.Run_metrics.stats.Stats.region_transitions) cnet net;
            r (fun m -> m.Run_metrics.stats.Stats.region_transitions) clei lei;
            r (fun m -> m.Run_metrics.cover_90) cnet net;
            r (fun m -> m.Run_metrics.cover_90) clei lei;
            Table.fmt_pct net.Run_metrics.exit_dominated_fraction;
            Table.fmt_pct lei.Run_metrics.exit_dominated_fraction;
          ])
        Suite.all
        (let n = List.length policies in
         List.init (List.length Suite.all) (fun i ->
             List.filteri (fun j _ -> j >= i * n && j < (i + 1) * n) metrics))
    in
    Table.print
      ~header:
        [
          "bench"; "hitN"; "hitL"; "exp L/N"; "tr L/N"; "cov L/N"; "ctr L/N"; "cycL"; "cycN";
          "tr cN/N"; "tr cL/L"; "cov cN/N"; "cov cL/L"; "domN"; "domL";
        ]
      rows
  in
  Cmd.v
    (Cmd.info "suite" ~doc:"Key LEI/NET and combination ratios across the whole suite")
    Term.(const run $ steps_arg $ seed_arg)

let sweep_cmd =
  let apply params name value =
    let module P = Regionsel_engine.Params in
    match name with
    | "net-threshold" -> { params with P.net_threshold = value }
    | "lei-threshold" -> { params with P.lei_threshold = value }
    | "lei-buffer" -> { params with P.lei_buffer_size = value }
    | "t-prof" -> { params with P.combine_t_prof = value }
    | "t-min" -> { params with P.combine_t_min = value }
    | "method-threshold" -> { params with P.method_threshold = value }
    | "cache-capacity" -> { params with P.cache_capacity_bytes = Some value }
    | other ->
      Printf.eprintf
        "unknown parameter %s (known: net-threshold lei-threshold lei-buffer t-prof t-min \
         method-threshold cache-capacity)\n"
        other;
      exit 2
  in
  let run bench policy steps seed param values =
    let spec = lookup_bench bench in
    let policy = lookup_policy policy in
    let rows =
      List.map
        (fun value ->
          let params = apply Regionsel_engine.Params.default param value in
          let image = Spec.image spec in
          let max_steps = Option.value ~default:spec.Spec.default_steps steps in
          let m =
            Run_metrics.of_result (Simulator.run ~seed ~params ~policy ~max_steps image)
          in
          [
            string_of_int value;
            Table.fmt_pct m.Run_metrics.hit_rate;
            string_of_int m.Run_metrics.n_regions;
            string_of_int m.Run_metrics.code_expansion;
            string_of_int m.Run_metrics.stats.Stats.region_transitions;
            string_of_int m.Run_metrics.cover_90;
            string_of_int m.Run_metrics.counters_high_water;
          ])
        values
    in
    Table.print
      ~header:[ param; "hit"; "regions"; "expansion"; "transitions"; "cover90"; "counters" ]
      rows
  in
  let param =
    Arg.(
      required
      & opt (some string) None
      & info [ "param" ] ~docv:"NAME" ~doc:"Parameter to sweep (e.g. lei-buffer).")
  in
  let values =
    Arg.(
      non_empty & pos_all int []
      & info [] ~docv:"VALUES" ~doc:"Values to sweep over.")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep one parameter for a benchmark and policy")
    Term.(const run $ bench_arg $ policy_arg $ steps_arg $ seed_arg $ param $ values)

let export_cmd =
  let run steps seed =
    (* CSV of every metric for every benchmark x policy pair, for external
       plotting. *)
    let cols =
      [
        "benchmark"; "policy"; "steps"; "total_insts"; "hit_rate"; "regions"; "expansion";
        "stubs"; "avg_region_insts"; "spanned_cycle_ratio"; "executed_cycle_ratio";
        "transitions"; "dispatches"; "cover90"; "counters_high_water";
        "observed_bytes_high_water"; "est_cache_bytes"; "exit_dominated_regions";
        "exit_dominated_fraction"; "exit_dominated_dup_insts"; "icache_miss_rate"; "evictions";
        "regenerations";
      ]
    in
    print_endline (String.concat "," cols);
    let tasks = Suite.grid Policies.all in
    let rows =
      parallel_map_specs
        (fun spec (pname, policy) ->
          let m = Run_metrics.of_result (simulate spec policy steps seed) in
              [
                m.Run_metrics.benchmark; pname;
                string_of_int m.Run_metrics.stats.Stats.steps;
                string_of_int m.Run_metrics.total_insts;
                Printf.sprintf "%.6f" m.Run_metrics.hit_rate;
                string_of_int m.Run_metrics.n_regions;
                string_of_int m.Run_metrics.code_expansion;
                string_of_int m.Run_metrics.n_stubs;
                Printf.sprintf "%.2f" m.Run_metrics.avg_region_insts;
                Printf.sprintf "%.6f" m.Run_metrics.spanned_cycle_ratio;
                Printf.sprintf "%.6f" m.Run_metrics.executed_cycle_ratio;
                string_of_int m.Run_metrics.stats.Stats.region_transitions;
                string_of_int m.Run_metrics.stats.Stats.dispatches;
                string_of_int m.Run_metrics.cover_90;
                string_of_int m.Run_metrics.counters_high_water;
                string_of_int m.Run_metrics.observed_bytes_high_water;
                string_of_int m.Run_metrics.est_cache_bytes;
                string_of_int m.Run_metrics.exit_dominated_regions;
                Printf.sprintf "%.6f" m.Run_metrics.exit_dominated_fraction;
                string_of_int m.Run_metrics.exit_dominated_dup_insts;
                Printf.sprintf "%.6f" m.Run_metrics.icache_miss_rate;
            string_of_int m.Run_metrics.evictions;
            string_of_int m.Run_metrics.regenerations;
          ])
        tasks
    in
    List.iter (fun row -> print_endline (String.concat "," row)) rows
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Emit a CSV of every metric for every benchmark x policy pair")
    Term.(const run $ steps_arg $ seed_arg)

let describe_cmd =
  let run bench =
    let module Characterize = Regionsel_workload.Characterize in
    match bench with
    | Some name ->
      Format.printf "%a@." Characterize.pp
        (Characterize.of_image (Spec.image (lookup_bench name)))
    | None ->
      Table.print ~header:Characterize.header
        (List.map
           (fun (s : Spec.t) -> Characterize.row (Characterize.of_image (Spec.image s)))
           Suite.all)
  in
  let bench_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "b"; "bench" ] ~docv:"NAME" ~doc:"Describe one benchmark (default: all).")
  in
  Cmd.v
    (Cmd.info "describe" ~doc:"Static control-flow characterization of the workloads")
    Term.(const run $ bench_opt)

let list_cmd =
  let run () =
    print_endline "benchmarks:";
    List.iter
      (fun (s : Spec.t) ->
        Printf.printf "  %-8s (default %d steps) %s\n" s.Spec.name s.Spec.default_steps
          s.Spec.description)
      Suite.all;
    print_endline "policies:";
    List.iter (fun (name, _) -> Printf.printf "  %s\n" name) Policies.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmarks and policies") Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "regionsel_sim" ~version:"1.0.0"
       ~doc:"Simulate region selection for dynamic optimization systems")
    [ run_cmd; record_cmd; replay_cmd; regions_cmd; profile_cmd; disas_cmd; matrix_cmd; domination_cmd; suite_cmd; sweep_cmd; export_cmd; describe_cmd; list_cmd ]

let () = exit (Cmd.eval main)
