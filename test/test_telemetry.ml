(* The telemetry subsystem: span reconstruction completeness, the
   tracer-on/tracer-off parity invariant, ring-buffer overwrite semantics,
   log2 histogram bucketing, and the trace exporters. *)

module Spec = Regionsel_workload.Spec
module Suite = Regionsel_workload.Suite
module Simulator = Regionsel_engine.Simulator
module Params = Regionsel_engine.Params
module Stats = Regionsel_engine.Stats
module Run_metrics = Regionsel_metrics.Run_metrics
module Policies = Regionsel_core.Policies
module Telemetry = Regionsel_telemetry.Telemetry
module Trace_export = Regionsel_telemetry.Trace_export
open Fixtures

let mixed_params =
  { Params.default with Params.faults = Params.fault_profile "mixed" }

let run_traced ?(params = mixed_params) ?(policy = "net") ?(bench = "gzip")
    ?(max_steps = 100_000) ?capacity () =
  let spec = Option.get (Suite.find bench) in
  let t = Telemetry.create ?capacity () in
  let result =
    Simulator.run ~params ~seed:1L ~telemetry:(Some t)
      ~policy:(Option.get (Policies.find policy))
      ~max_steps (Spec.image spec)
  in
  Telemetry.finish t ~step:result.Simulator.stats.Stats.steps;
  t, result

(* Acceptance: every install→retirement pair is reconstructed — the span
   count equals the number of installs, regardless of ring capacity. *)
let spans_cover_every_install () =
  let t, result = run_traced () in
  let installs = result.Simulator.stats.Stats.installs in
  Alcotest.(check bool) "run installed regions" true (installs > 0);
  Alcotest.(check int) "ledger saw every install" installs (Telemetry.n_installs t);
  Alcotest.(check int) "one span per install" installs (List.length (Telemetry.spans t));
  (* The same holds with a ring far too small to hold the event stream. *)
  let t, result = run_traced ~capacity:16 () in
  Alcotest.(check int) "spans survive ring overwrite"
    result.Simulator.stats.Stats.installs
    (List.length (Telemetry.spans t))

let spans_are_well_formed () =
  let t, result = run_traced () in
  let steps = result.Simulator.stats.Stats.steps in
  List.iter
    (fun (s : Telemetry.span) ->
      Alcotest.(check bool) "install within run" true
        (s.Telemetry.installed_at >= 0 && s.Telemetry.installed_at <= steps);
      Alcotest.(check bool) "retire after install" true
        (s.Telemetry.retired_at >= s.Telemetry.installed_at);
      Alcotest.(check bool) "has nodes" true (s.Telemetry.n_nodes > 0))
    (Telemetry.spans t);
  (* Install order. *)
  let rec sorted = function
    | (a : Telemetry.span) :: (b :: _ as rest) ->
      a.Telemetry.installed_at <= b.Telemetry.installed_at && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "spans in install order" true (sorted (Telemetry.spans t))

(* The second invariant: running with a recorder changes no metric. *)
let tracer_on_metrics_identical () =
  let run telemetry =
    let spec = Option.get (Suite.find "gzip") in
    Run_metrics.of_result
      (Simulator.run ~params:mixed_params ~seed:1L ~telemetry
         ~policy:(Option.get (Policies.find "net"))
         ~max_steps:100_000 (Spec.image spec))
  in
  let off = run Telemetry.none in
  let on = run (Some (Telemetry.create ())) in
  (* The [telemetry] field itself is the one deliberate difference: it
     reports the sink's own bookkeeping and is [None] without a sink. *)
  Alcotest.(check bool) "sink-less run has no telemetry field" true
    (off.Run_metrics.telemetry = None);
  Alcotest.(check bool) "traced run reports its sink" true
    (on.Run_metrics.telemetry <> None);
  Alcotest.(check bool) "Run_metrics identical with tracer on" true
    ({ off with Run_metrics.telemetry = None }
    = { on with Run_metrics.telemetry = None })

let finish_closes_open_spans () =
  (* A clean (fault-free) run retires nothing: every span must be closed
     by [finish] with cause [End_of_run] at the final step. *)
  let t, result = run_traced ~params:Params.default () in
  let steps = result.Simulator.stats.Stats.steps in
  let spans = Telemetry.spans t in
  Alcotest.(check bool) "has spans" true (spans <> []);
  List.iter
    (fun (s : Telemetry.span) ->
      Alcotest.(check bool) "cause end-of-run" true (s.Telemetry.cause = Telemetry.End_of_run);
      Alcotest.(check int) "retired at finish step" steps s.Telemetry.retired_at)
    spans;
  (* Idempotent: a second finish must not double-close. *)
  let n = List.length spans in
  Telemetry.finish t ~step:steps;
  Alcotest.(check int) "finish is idempotent" n (List.length (Telemetry.spans t))

let residency_counts_genuine_retirements () =
  let t, _ = run_traced () in
  let genuine =
    List.length
      (List.filter
         (fun (s : Telemetry.span) -> s.Telemetry.cause <> Telemetry.End_of_run)
         (Telemetry.spans t))
  in
  Alcotest.(check int) "residency observes genuine retirements" genuine
    (Telemetry.Hist.count (Telemetry.residency t))

let ring_overwrites_oldest () =
  let t, _ = run_traced ~capacity:16 () in
  Alcotest.(check int) "capacity rounded" 16 (Telemetry.capacity t);
  let events = Telemetry.events t in
  Alcotest.(check bool) "at most capacity survive" true (List.length events <= 16);
  Alcotest.(check int) "dropped = emitted - surviving"
    (Telemetry.n_emitted t - List.length events)
    (Telemetry.n_dropped t);
  Alcotest.(check bool) "overwrite happened" true (Telemetry.n_dropped t > 0);
  (* Oldest-first: steps never decrease. *)
  let rec mono = function
    | (a : Telemetry.event) :: (b :: _ as rest) ->
      a.Telemetry.step <= b.Telemetry.step && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "events oldest first" true (mono events)

let no_drops_with_room () =
  let t, _ = run_traced ~capacity:1_000_000 () in
  Alcotest.(check int) "nothing dropped" 0 (Telemetry.n_dropped t);
  Alcotest.(check int) "everything survives" (Telemetry.n_emitted t)
    (List.length (Telemetry.events t))

(* The ring grows from a small start to its capacity as events arrive.
   At every fill, below, across and past a doubling and past the first
   wrap, the survivors are the newest [capacity] events in order, and a
   saved-and-loaded recorder continues exactly as the original. *)
let ring_grows_then_wraps () =
  let capacity = 4096 in
  let emit t ~from ~upto =
    for i = from to upto - 1 do
      Telemetry.dispatch (Some t) ~step:i ~id:(i land 0xFF)
    done
  in
  let steps t = List.map (fun (e : Telemetry.event) -> e.Telemetry.step) (Telemetry.events t) in
  let newest n = List.init (min n capacity) (fun k -> max 0 (n - capacity) + k) in
  List.iter
    (fun n ->
      let t = Telemetry.create ~capacity () in
      emit t ~from:0 ~upto:n;
      let name what = Printf.sprintf "%d events: %s" n what in
      Alcotest.(check (list int)) (name "newest survive, oldest first") (newest n) (steps t);
      Alcotest.(check int) (name "dropped") (max 0 (n - capacity)) (Telemetry.n_dropped t);
      let saved = Queue.create () in
      Telemetry.save t (fun v -> Queue.push v saved);
      let u = Telemetry.create ~capacity () in
      Telemetry.load u (fun () -> Queue.pop saved);
      emit t ~from:n ~upto:(n + 3000);
      emit u ~from:n ~upto:(n + 3000);
      Alcotest.(check (list int)) (name "restored recorder continues alike") (steps t) (steps u);
      Alcotest.(check (list int)) (name "and keeps the newest") (newest (n + 3000)) (steps u))
    [ 0; 1; 1023; 1024; 1025; 2048; 3000; 4095; 4096; 4097; 9000 ]

let hist_bucketing () =
  let h = Telemetry.Hist.create () in
  List.iter (Telemetry.Hist.observe h) [ 0; 1; 2; 3; 4; 7; 8; 100 ];
  Alcotest.(check int) "count" 8 (Telemetry.Hist.count h);
  Alcotest.(check int) "sum" 125 (Telemetry.Hist.sum h);
  Alcotest.(check int) "max" 100 (Telemetry.Hist.max_value h);
  Alcotest.(check (list (triple int int int)))
    "log2 buckets"
    [ 0, 0, 1; 1, 1, 1; 2, 3, 2; 4, 7, 2; 8, 15, 1; 64, 127, 1 ]
    (Telemetry.Hist.buckets h);
  (* Negative observations land in the sentinel bucket and don't poison
     the sum. *)
  let h = Telemetry.Hist.create () in
  Telemetry.Hist.observe h (-5);
  Alcotest.(check (list (triple int int int))) "negative -> bucket 0" [ 0, 0, 1 ]
    (Telemetry.Hist.buckets h)

let selection_and_cooldown_histograms () =
  let t, result = run_traced () in
  let stats = result.Simulator.stats in
  (* Every install was preceded by a selection, and rejected selections
     count too. *)
  Alcotest.(check bool) "trace-length count >= installs" true
    (Telemetry.Hist.count (Telemetry.trace_length t) >= stats.Stats.installs);
  Alcotest.(check bool) "trace lengths positive" true
    (Telemetry.Hist.max_value (Telemetry.trace_length t) > 0);
  (* The mixed profile blacklists entries (invalidations + translation
     failures). *)
  Alcotest.(check bool) "cooldowns observed" true
    (Telemetry.Hist.count (Telemetry.blacklist_cooldown t) > 0);
  (* Fragment linking happened, so first-link latencies were observed —
     at most once per install. *)
  let m = Run_metrics.of_result result in
  let ttfl = Telemetry.Hist.count (Telemetry.time_to_first_link t) in
  if m.Run_metrics.stats.Stats.links > 0 then
    Alcotest.(check bool) "first-link observed" true (ttfl > 0);
  Alcotest.(check bool) "first-link once per region" true (ttfl <= stats.Stats.installs)

let event_stream_is_coherent () =
  let t, result = run_traced ~capacity:1_000_000 () in
  let stats = result.Simulator.stats in
  let count k =
    List.length
      (List.filter (fun (e : Telemetry.event) -> e.Telemetry.kind = k) (Telemetry.events t))
  in
  Alcotest.(check int) "install events" stats.Stats.installs (count Telemetry.Install);
  Alcotest.(check int) "dispatch events" stats.Stats.dispatches (count Telemetry.Dispatch);
  Alcotest.(check int) "fault events" stats.Stats.faults_injected (count Telemetry.Fault);
  Alcotest.(check int) "bailout enters" stats.Stats.bailouts (count Telemetry.Bailout_enter);
  Alcotest.(check bool) "bailout exits pair up" true
    (count Telemetry.Bailout_exit <= stats.Stats.bailouts)

let exporters_write_valid_files () =
  let t, _ = run_traced () in
  let path = Filename.temp_file "regionsel_trace" ".json" in
  let jsonl = path ^ ".jsonl" in
  Trace_export.write_chrome t ~name:"gzip/net" ~path;
  Trace_export.write_jsonl t ~path:jsonl;
  let read p =
    let ic = open_in p in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let chrome = read path in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "chrome trace is an object" true (String.length chrome > 2 && chrome.[0] = '{');
  Alcotest.(check bool) "has traceEvents" true (contains "\"traceEvents\"" chrome);
  Alcotest.(check bool) "has span events" true (contains "\"ph\": \"X\"" chrome);
  let lines = String.split_on_char '\n' (String.trim (read jsonl)) in
  Alcotest.(check bool) "jsonl non-empty" true (List.length lines > 1);
  List.iter
    (fun l -> Alcotest.(check bool) "jsonl line is an object" true (l <> "" && l.[0] = '{'))
    lines;
  Alcotest.(check bool) "jsonl ends with summary" true
    (contains "\"summary\"" (List.nth lines (List.length lines - 1)));
  Sys.remove path;
  Sys.remove jsonl

(* Unit-level: the ledger handles region-id reuse (a fresh cache after a
   flush restarts ids at 0) by closing the stale span. *)
let ledger_handles_id_reuse () =
  let t = Telemetry.create () in
  let sink = Some t in
  Telemetry.install sink ~step:10 ~id:0 ~n_nodes:3;
  Telemetry.install sink ~step:20 ~id:0 ~n_nodes:5;
  Telemetry.evict sink ~step:30 ~id:0 ~flush:false;
  Telemetry.finish t ~step:40;
  let spans = Telemetry.spans t in
  Alcotest.(check int) "both installs have spans" 2 (List.length spans);
  match spans with
  | [ a; b ] ->
    Alcotest.(check int) "first closed at reuse" 20 a.Telemetry.retired_at;
    Alcotest.(check int) "second closed by evict" 30 b.Telemetry.retired_at;
    Alcotest.(check bool) "second cause evicted" true (b.Telemetry.cause = Telemetry.Evicted)
  | _ -> Alcotest.fail "expected exactly two spans"

(* Span durations can never run backwards, even when a caller hands the
   cache stale step stamps: [Code_cache.set_now] clamps (and counts) a
   regressing clock, so every lifecycle event is stamped at or after the
   install it follows. *)
let span_durations_never_negative () =
  let module Code_cache = Regionsel_engine.Code_cache in
  let module Region = Regionsel_engine.Region in
  let open Regionsel_isa in
  let spec start =
    Region.spec_of_path ~kind:Region.Trace
      {
        Region.blocks = [ Block.make ~start ~size:10 ~term:Terminator.Return ];
        final_next = None;
      }
  in
  let t = Telemetry.create () in
  let cache = grid_cache ~telemetry:(Some t) () in
  Code_cache.set_now cache 100;
  ignore (Code_cache.install_exn cache (spec 0));
  (* A stale stamp must clamp, not rewind the clock under the open span. *)
  Code_cache.set_now cache 40;
  check_int "stale stamp clamped" 100 (Code_cache.now cache);
  ignore (Code_cache.invalidate_range cache ~lo:0 ~hi:0);
  Code_cache.set_now cache 10;
  ignore (Code_cache.install_exn cache (spec 64));
  Telemetry.finish t ~step:(Code_cache.now cache);
  check_int "both spans reconstructed" 2 (List.length (Telemetry.spans t));
  List.iter
    (fun (s : Telemetry.span) ->
      check_true
        (Printf.sprintf "span #%d duration non-negative (%d..%d)" s.Telemetry.id
           s.Telemetry.installed_at s.Telemetry.retired_at)
        (s.Telemetry.retired_at >= s.Telemetry.installed_at))
    (Telemetry.spans t);
  (* The end-to-end version: a fault-heavy traced run never produces a
     backwards span either. *)
  let t, _ = run_traced ~policy:"combined-lei" () in
  List.iter
    (fun (s : Telemetry.span) ->
      check_true "traced-run span non-negative"
        (s.Telemetry.retired_at >= s.Telemetry.installed_at))
    (Telemetry.spans t)

let suite =
  [
    case "span count equals installs" spans_cover_every_install;
    case "spans are well-formed" spans_are_well_formed;
    case "tracer on/off metric parity" tracer_on_metrics_identical;
    case "finish closes open spans" finish_closes_open_spans;
    case "residency counts genuine retirements" residency_counts_genuine_retirements;
    case "ring overwrites oldest" ring_overwrites_oldest;
    case "no drops with room" no_drops_with_room;
    case "ring grows then wraps" ring_grows_then_wraps;
    case "hist bucketing" hist_bucketing;
    case "selection and cooldown histograms" selection_and_cooldown_histograms;
    case "event stream coherent" event_stream_is_coherent;
    case "exporters write valid files" exporters_write_valid_files;
    case "ledger handles id reuse" ledger_handles_id_reuse;
    case "span durations never negative" span_durations_never_negative;
  ]
