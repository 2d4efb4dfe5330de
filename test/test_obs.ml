(* The windowed metrics pipeline's contracts: recorders close windows at
   deterministic step boundaries and mutate nothing simulated; both
   exporters are byte-deterministic (JSONL across reruns and across
   multi-stream domain counts, Prometheus duplicate-free and grammatical);
   the flight recorder's ring bounds history to the newest K windows. *)

module Spec = Regionsel_workload.Spec
module Suite = Regionsel_workload.Suite
module Simulator = Regionsel_engine.Simulator
module Multi_stream = Regionsel_engine.Multi_stream
module Params = Regionsel_engine.Params
module Stats = Regionsel_engine.Stats
module Run_metrics = Regionsel_metrics.Run_metrics
module Policies = Regionsel_core.Policies
module Telemetry = Regionsel_telemetry.Telemetry
module Metrics = Regionsel_obs.Metrics
module Persist = Regionsel_persist.Persist
open Fixtures

let policy_exn name = Option.get (Policies.find name)
let labels = [ ("tenant", "gzip"); ("policy", "net"); ("dispatch", "threaded") ]

(* Drive [sim] to its end under [r]'s windows, then close the tail. *)
let metered r sim =
  Metrics.advance r sim ~upto:max_int;
  let result = Simulator.finish sim in
  Metrics.finalize r result;
  result

let metered_run ?telemetry ?(window = 1000) ?keep ?notify ?(max_steps = 20_000) () =
  let spec = Option.get (Suite.find "gzip") in
  let r = Metrics.create ~window ?keep ?notify ~labels () in
  let sim =
    Simulator.create ~params:Params.default ~seed:1L ?telemetry ~policy:(policy_exn "net")
      ~max_steps (Spec.image spec)
  in
  (r, metered r sim)

(* ---- Recorder semantics ---- *)

let windows_close_at_absolute_boundaries () =
  let r, result = metered_run () in
  let ws = Metrics.windows r in
  check_true "has windows" (ws <> []);
  check_int "retains everything without keep" (Metrics.n_windows r) (List.length ws);
  List.iteri
    (fun i (w : Metrics.window) ->
      check_int "indices are sequential" i w.Metrics.w_index;
      check_true "window is non-empty" (w.Metrics.w_end_step > w.Metrics.w_start_step);
      (* Every boundary except a final partial one is an absolute multiple
         of the window size — not an offset from the previous sample. *)
      if i < List.length ws - 1 then
        check_int "boundary is an absolute multiple" 0 (w.Metrics.w_end_step mod 1000))
    ws;
  (* Contiguous coverage: each window starts where the last one ended,
     and the final one ends at the run's last step. *)
  let rec contiguous = function
    | a :: (b :: _ as rest) ->
      check_int "windows are contiguous" a.Metrics.w_end_step b.Metrics.w_start_step;
      contiguous rest
    | [ last ] ->
      check_int "final window ends at the run's last step"
        result.Simulator.stats.Stats.steps last.Metrics.w_end_step
    | [] -> ()
  in
  contiguous ws;
  List.iter
    (fun (w : Metrics.window) ->
      Alcotest.(check (list (pair string string))) "labels ride every window" labels
        w.Metrics.w_labels)
    ws

let finalize_is_boundary_exact () =
  (* A run halting exactly on a boundary gains nothing from finalize; one
     halting past it gains exactly the partial tail. *)
  let r, result = metered_run ~window:100 () in
  let last = List.nth (Metrics.windows r) (Metrics.n_windows r - 1) in
  check_int "tail window reaches the final step" result.Simulator.stats.Stats.steps
    last.Metrics.w_end_step;
  let n = Metrics.n_windows r in
  Metrics.finalize r result;
  check_int "finalize is idempotent" n (Metrics.n_windows r)

let keep_bounds_the_ring () =
  let r, _ = metered_run ~window:500 ~keep:4 () in
  let ws = Metrics.windows r in
  check_int "ring keeps the newest 4" 4 (List.length ws);
  check_true "more were sampled than kept" (Metrics.n_windows r > 4);
  let first = List.hd ws in
  check_int "oldest retained index" (Metrics.n_windows r - 4) first.Metrics.w_index

let notify_fires_per_window () =
  let seen = ref 0 in
  let r, _ = metered_run ~notify:(fun _ -> incr seen) () in
  check_int "notify fired once per window" (Metrics.n_windows r) !seen;
  check_true "status line is labelled"
    (let line = Metrics.status_line (List.hd (Metrics.windows r)) in
     let has sub =
       let n = String.length sub in
       let rec at i = i + n <= String.length line && (String.sub line i n = sub || at (i + 1)) in
       at 0
     in
     has "tenant=gzip" && has "policy=net" && has "win=")

let quantiles_require_a_sink () =
  let names (r, _) =
    List.concat_map
      (fun (w : Metrics.window) -> List.map fst w.Metrics.w_values)
      (Metrics.windows r)
  in
  let plain = names (metered_run ()) in
  check_true "no quantile series without a sink"
    (not (List.exists (fun n -> n = "residency_p50") plain));
  let traced = names (metered_run ~telemetry:(Some (Telemetry.create ())) ()) in
  List.iter
    (fun n -> check_true (n ^ " series present with a sink") (List.mem n traced))
    [
      "residency_p50"; "residency_p90"; "residency_p99";
      "trace_length_p50"; "trace_length_p90"; "trace_length_p99";
      "time_to_first_link_p50"; "time_to_first_link_p90"; "time_to_first_link_p99";
    ]

(* ---- The parity pin: metering changes nothing simulated ---- *)

let metered_run_changes_no_metric () =
  let spec = Option.get (Suite.find "gzip") in
  let bare =
    Simulator.run ~params:Params.default ~seed:1L ~policy:(policy_exn "net")
      ~max_steps:20_000 (Spec.image spec)
  in
  let _, metered = metered_run ~window:64 () in
  Alcotest.(check string) "Run_metrics identical with metering on"
    (Run_metrics.to_json (Run_metrics.of_result bare))
    (Run_metrics.to_json (Run_metrics.of_result metered))

(* ---- Exporters ---- *)

let jsonl_is_byte_identical_across_reruns () =
  let dump () =
    let r, _ = metered_run ~telemetry:(Some (Telemetry.create ())) () in
    Metrics.to_jsonl (Metrics.windows r)
  in
  let a = dump () in
  check_true "jsonl is non-empty" (String.length a > 0);
  Alcotest.(check string) "rerun is byte-identical" a (dump ())

let jsonl_records_are_one_per_series_per_window () =
  let r, _ = metered_run ~window:1000 () in
  let ws = Metrics.windows r in
  let lines =
    String.split_on_char '\n' (Metrics.to_jsonl ws) |> List.filter (fun l -> l <> "")
  in
  let per_window = List.length (List.hd ws).Metrics.w_values in
  check_int "one line per series per window" (List.length ws * per_window)
    (List.length lines);
  List.iter
    (fun l ->
      check_true "line is a JSON object"
        (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines

let prometheus_grammar_and_uniqueness () =
  let r, _ = metered_run ~telemetry:(Some (Telemetry.create ())) () in
  let text = Metrics.to_prometheus (Metrics.windows r) in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  check_true "exposition is non-empty" (lines <> []);
  let typed = Hashtbl.create 32 in
  let seen = Hashtbl.create 32 in
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] = '#' then begin
        (* "# HELP name text" / "# TYPE name kind" *)
        match String.split_on_char ' ' line with
        | "#" :: kind :: name :: _ ->
          check_true "comment is HELP or TYPE" (kind = "HELP" || kind = "TYPE");
          if kind = "TYPE" then begin
            check_true ("TYPE once per series: " ^ name) (not (Hashtbl.mem typed name));
            Hashtbl.replace typed name ()
          end
        | _ -> Alcotest.failf "malformed comment line: %s" line
      end
      else begin
        (* "name{label="v",...} value" — value must parse as a float. *)
        let sp = String.rindex line ' ' in
        let value = String.sub line (sp + 1) (String.length line - sp - 1) in
        check_true ("sample value parses: " ^ line)
          (Float.is_finite (float_of_string value));
        let key = String.sub line 0 sp in
        let name =
          match String.index_opt key '{' with
          | Some i ->
            check_true "label block closes" (key.[String.length key - 1] = '}');
            String.sub key 0 i
          | None -> key
        in
        check_true ("name is prefixed: " ^ name)
          (String.length name > 10 && String.sub name 0 10 = "regionsel_");
        check_true ("TYPE precedes sample: " ^ name) (Hashtbl.mem typed name);
        check_true ("no duplicate series: " ^ key) (not (Hashtbl.mem seen key));
        Hashtbl.replace seen key ()
      end)
    lines

(* ---- Multi-stream fleets ---- *)

let fleet_specs =
  [ ("gzip", "net", 1L); ("twolf", "lei", 2L); ("mcf", "combined-net", 3L) ]

let fleet_tenants () =
  List.map
    (fun (bench, pname, seed) ->
      let spec = Option.get (Suite.find bench) in
      ( bench,
        Simulator.create ~params:Params.default ~seed ~policy:(policy_exn pname)
          ~max_steps:(min spec.Spec.default_steps 20_000)
          (Spec.image spec) ))
    fleet_specs

let fleet_labels =
  List.map
    (fun (bench, pname, _) -> (bench, [ ("tenant", bench); ("policy", pname) ]))
    fleet_specs

let fleet_jsonl ~n_domains =
  let fleet = Metrics.Fleet.create fleet_labels in
  let (_ : Multi_stream.outcome) =
    Multi_stream.run ~n_domains ~batch_steps:1024
      ~on_barrier:(Metrics.Fleet.on_barrier fleet) (fleet_tenants ())
  in
  (fleet, Metrics.to_jsonl (Metrics.Fleet.all_windows fleet))

let fleet_jsonl_identical_across_domain_counts () =
  let fleet, a = fleet_jsonl ~n_domains:1 in
  let _, b = fleet_jsonl ~n_domains:3 in
  check_true "fleet jsonl is non-empty" (String.length a > 0);
  Alcotest.(check string) "1 vs 3 domains byte-identical" a b;
  (* Every tenant recorded windows, and the aggregate matched the barrier
     count of the longest-lived tenant. *)
  List.iter
    (fun (name, ws) -> check_true (name ^ " has windows") (ws <> []))
    (Metrics.Fleet.tenant_windows fleet);
  let agg = Metrics.Fleet.aggregate_windows fleet in
  check_true "aggregate has windows" (agg <> []);
  let longest =
    List.fold_left max 0
      (List.map (fun (_, ws) -> List.length ws) (Metrics.Fleet.tenant_windows fleet))
  in
  check_int "aggregate closes one window per barrier" longest (List.length agg)

let fleet_aggregate_sums_steps () =
  let fleet, _ = fleet_jsonl ~n_domains:2 in
  let steps_of ws =
    List.fold_left
      (fun acc (w : Metrics.window) ->
        match List.assoc "steps" w.Metrics.w_values with
        | Metrics.Int n -> acc + n
        | Metrics.Float _ -> acc)
      0 ws
  in
  let tenant_total =
    List.fold_left
      (fun acc (_, ws) -> acc + steps_of ws)
      0
      (Metrics.Fleet.tenant_windows fleet)
  in
  check_int "aggregate windows sum the tenants' step deltas" tenant_total
    (steps_of (Metrics.Fleet.aggregate_windows fleet))

(* ---- Flight recorder ---- *)

let flight_dump_writes_header_and_ring () =
  let r, _ = metered_run ~window:500 ~keep:Metrics.default_flight_keep () in
  let path = Filename.temp_file "regionsel" ".flight.jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let n =
        Metrics.flight_dump ~path ~cli:"regionsel_sim run gzip" ~detail:"unit test"
          (Metrics.windows r)
      in
      check_int "dumps the retained ring" Metrics.default_flight_keep n;
      let lines =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      let header = List.hd lines in
      check_true "header carries the reproducer line"
        (String.length header > 0
        && header.[0] = '{'
        &&
        let has sub =
          let nn = String.length sub in
          let rec at i =
            i + nn <= String.length header && (String.sub header i nn = sub || at (i + 1))
          in
          at 0
        in
        has "\"flight\"" && has "regionsel_sim run gzip" && has "unit test");
      let per_window =
        List.length (List.hd (Metrics.windows r)).Metrics.w_values
      in
      check_int "header plus one line per series per window"
        (1 + (n * per_window))
        (List.length lines))

(* ---- Golden digests: windows and save points ---- *)

(* Solo metering and save points pinned byte for byte: per (bench,
   policy, clean|mixed, window, save point) cell, one MD5 of the cell's
   JSONL windows and one of the [Persist.encode] image at its save point
   ("end" = after the last step), at seed 1 and a budget of
   min(default, 30k) steps. *)
let obs_golden_path = "golden/obs_windows.txt"
let obs_golden_policies = [ "net"; "lei"; "combined-lei" ]
let obs_golden_points =
  [ (1000, Some 8000); (4096, Some 8192); (777, Some 12345); (4096, None) ]

let obs_golden_cell (spec : Spec.t) pname params (window, at) =
  let r =
    Metrics.create ~window
      ~labels:[ ("tenant", spec.Spec.name); ("policy", pname); ("dispatch", "threaded") ]
      ()
  in
  let sim =
    Simulator.create ~params ~seed:1L ~policy:(policy_exn pname)
      ~max_steps:(min spec.Spec.default_steps 30_000)
      (Spec.image spec)
  in
  Metrics.advance r sim ~upto:(Option.value ~default:max_int at);
  let snap = Persist.encode ~seed:1L ~policy:pname (Simulator.internals sim) in
  ignore (metered r sim);
  (Metrics.to_jsonl (Metrics.windows r), snap)

let obs_golden_lines () =
  let mixed = Params.fault_profile "mixed" in
  List.concat_map
    (fun (spec : Spec.t) ->
      List.concat_map
        (fun pname ->
          List.concat_map
            (fun (mode, faults) ->
              List.map
                (fun ((window, at) as point) ->
                  let jsonl, snap =
                    obs_golden_cell spec pname { Params.default with Params.faults } point
                  in
                  Printf.sprintf "%s %s %s %d %s %s %s" spec.Spec.name pname mode window
                    (match at with Some n -> string_of_int n | None -> "end")
                    (Digest.to_hex (Digest.string jsonl))
                    (Digest.to_hex (Digest.bytes snap)))
                obs_golden_points)
            [ ("clean", None); ("mixed", mixed) ])
        obs_golden_policies)
    Suite.all

let windows_and_save_points_match_golden () =
  let golden = In_channel.with_open_text obs_golden_path In_channel.input_lines in
  let lines = obs_golden_lines () in
  check_int "one golden line per cell" (List.length golden) (List.length lines);
  List.iter2
    (fun line want ->
      if line <> want then
        Alcotest.failf "windows/save-point cell changed:\n  golden: %s\n  now:    %s" want
          line)
    lines golden

let suite =
  [
    case "windows close at absolute boundaries" windows_close_at_absolute_boundaries;
    case "finalize is boundary-exact" finalize_is_boundary_exact;
    case "keep bounds the ring" keep_bounds_the_ring;
    case "notify fires per window" notify_fires_per_window;
    case "quantile series require a sink" quantiles_require_a_sink;
    case "metered run changes no metric" metered_run_changes_no_metric;
    case "jsonl byte-identical across reruns" jsonl_is_byte_identical_across_reruns;
    case "jsonl one record per series per window" jsonl_records_are_one_per_series_per_window;
    case "prometheus grammar and uniqueness" prometheus_grammar_and_uniqueness;
    case "fleet jsonl identical across domain counts" fleet_jsonl_identical_across_domain_counts;
    case "fleet aggregate sums steps" fleet_aggregate_sums_steps;
    case "flight dump writes header and ring" flight_dump_writes_header_and_ring;
    case "windows and save points match golden digests"
      windows_and_save_points_match_golden;
  ]
