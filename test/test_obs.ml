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

(* ---- Restored runs ---- *)

(* A recorder over a restored run opens its first window at the restore
   point; from the first boundary on, its windows are the uninterrupted
   run's (indices stay local to each recorder). *)
let restored_windows_match_the_uninterrupted_run () =
  let spec = Option.get (Suite.find "gzip") in
  List.iter
    (fun (faults, sink, at) ->
      let create ?restore () =
        Simulator.create
          ~params:{ Params.default with Params.faults }
          ~seed:1L
          ~telemetry:(if sink then Some (Telemetry.create ()) else Telemetry.none)
          ?restore ~policy:(policy_exn "net") ~max_steps:20_000 (Spec.image spec)
      in
      let full = Metrics.create ~window:1000 ~labels () in
      let sim = create () in
      Metrics.advance full sim ~upto:at;
      let snap = Persist.encode ~seed:1L ~policy:"net" (Simulator.internals sim) in
      ignore (metered full sim);
      let restored = Metrics.create ~window:1000 ~labels () in
      let restore internals =
        check_true "clean restore"
          (Persist.clean (Persist.decode_into snap ~seed:1L ~policy:"net" internals))
      in
      ignore (metered restored (create ~restore ()));
      let ws = Metrics.windows restored in
      check_int "first window opens at the restore point" at (List.hd ws).Metrics.w_start_step;
      let boundary = (at + 999) / 1000 * 1000 in
      let from_boundary ws =
        List.filter_map
          (fun (w : Metrics.window) ->
            if w.Metrics.w_start_step >= boundary then Some { w with Metrics.w_index = 0 }
            else None)
          ws
      in
      Alcotest.(check string)
        (Printf.sprintf "windows from step %d match the uninterrupted run" boundary)
        (Metrics.to_jsonl (from_boundary (Metrics.windows full)))
        (Metrics.to_jsonl (from_boundary ws)))
    [ (None, false, 11_000); (None, true, 11_500); (Params.fault_profile "mixed", false, 11_000) ]

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

(* ---- Barrier sampling over multi-stream tenants ---- *)

let prom_golden_path = "golden/obs_prom.txt"

let md5 s = Digest.to_hex (Digest.string s)
let barrier_golden_line jsonl = "fleet 1024 " ^ md5 jsonl

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

(* The daemon's sampling path: one recorder per tenant, sampled at every
   barrier the tenant took part in; the per-tenant windows in submission
   order. *)
let tenant_jsonl ~n_domains =
  let recorders =
    List.map
      (fun (bench, pname, _) ->
        (bench, Metrics.create ~labels:[ ("tenant", bench); ("policy", pname) ] ()))
      fleet_specs
  in
  let eng =
    Multi_stream.Engine.create ~n_domains ~batch_steps:1024
      ~on_barrier:(fun ~round:_ participants ->
        Array.iter
          (fun (name, sim) -> Simulator.sample sim (Metrics.sample (List.assoc name recorders)))
          participants)
      ()
  in
  List.iter
    (fun (name, sim) -> Result.get_ok (Multi_stream.Engine.admit eng ~name sim))
    (fleet_tenants ());
  while Multi_stream.Engine.round eng ~limit:(fun ~name:_ ~sim:_ -> max_int) do
    ()
  done;
  List.iter
    (fun (name, r) -> check_true (name ^ " has windows") (Metrics.n_windows r > 0))
    recorders;
  Metrics.to_jsonl (List.concat_map (fun (_, r) -> Metrics.windows r) recorders)

let barrier_jsonl_identical_across_domain_counts () =
  let a = tenant_jsonl ~n_domains:1 in
  check_true "barrier jsonl is non-empty" (String.length a > 0);
  Alcotest.(check string) "1 vs 3 domains byte-identical" a (tenant_jsonl ~n_domains:3);
  let golden = In_channel.with_open_text prom_golden_path In_channel.input_lines in
  Alcotest.(check string) "matches the golden per-tenant digest"
    (List.nth golden (List.length golden - 1))
    (barrier_golden_line a)

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

(* ---- Golden digests ---- *)

(* Metered runs pinned byte for byte, one golden line per (bench, policy,
   clean|mixed, variant) cell, at seed 1 and a budget of min(default, 30k)
   steps.  golden/obs_windows.txt varies (window, save point) and holds
   the MD5 of the cell's JSONL windows and of the [Persist.encode] image
   at its save point ("end" = after the last step).  golden/obs_prom.txt
   varies the telemetry sink (off|on) and holds the MD5 of
   [Metrics.to_prometheus] at the default window, HELP lines included;
   its last line pins the barrier-sampled per-tenant JSONL above. *)
let obs_golden_policies = [ "net"; "lei"; "combined-lei" ]
let obs_golden_points =
  [ (1000, Some 8000); (4096, Some 8192); (777, Some 12345); (4096, None) ]

let golden_cell ?(sink = false) ~window ~at (spec : Spec.t) pname params =
  let r =
    Metrics.create ~window
      ~labels:[ ("tenant", spec.Spec.name); ("policy", pname); ("dispatch", "threaded") ]
      ()
  in
  let sim =
    Simulator.create ~params ~seed:1L
      ~telemetry:(if sink then Some (Telemetry.create ()) else Telemetry.none)
      ~policy:(policy_exn pname)
      ~max_steps:(min spec.Spec.default_steps 30_000)
      (Spec.image spec)
  in
  Metrics.advance r sim ~upto:(Option.value ~default:max_int at);
  let snap = Persist.encode ~seed:1L ~policy:pname (Simulator.internals sim) in
  ignore (metered r sim);
  (Metrics.windows r, snap)

let golden_lines variants line =
  let mixed = Params.fault_profile "mixed" in
  List.concat_map
    (fun (spec : Spec.t) ->
      List.concat_map
        (fun pname ->
          List.concat_map
            (fun (mode, faults) ->
              List.map (line spec pname mode { Params.default with Params.faults }) variants)
            [ ("clean", None); ("mixed", mixed) ])
        obs_golden_policies)
    Suite.all

let check_golden path lines =
  let golden = In_channel.with_open_text path In_channel.input_lines in
  check_int "one golden line per cell" (List.length golden) (List.length lines);
  List.iter2
    (fun line want ->
      if line <> want then
        Alcotest.failf "%s cell changed:\n  golden: %s\n  now:    %s" path want line)
    lines golden

let windows_and_save_points_match_golden () =
  check_golden "golden/obs_windows.txt"
    (golden_lines obs_golden_points (fun spec pname mode params (window, at) ->
         let ws, snap = golden_cell ~window ~at spec pname params in
         Printf.sprintf "%s %s %s %d %s %s %s" spec.Spec.name pname mode window
           (match at with Some n -> string_of_int n | None -> "end")
           (md5 (Metrics.to_jsonl ws))
           (Digest.to_hex (Digest.bytes snap))))

let prometheus_and_barrier_windows_match_golden () =
  check_golden prom_golden_path
    (golden_lines [ false; true ] (fun spec pname mode params sink ->
         let ws, _ = golden_cell ~sink ~window:Metrics.default_window ~at:None spec pname params in
         Printf.sprintf "%s %s %s %s %s" spec.Spec.name pname mode
           (if sink then "on" else "off")
           (md5 (Metrics.to_prometheus ws)))
    @ [ barrier_golden_line (tenant_jsonl ~n_domains:1) ])

let suite =
  [
    case "windows close at absolute boundaries" windows_close_at_absolute_boundaries;
    case "finalize is boundary-exact" finalize_is_boundary_exact;
    case "keep bounds the ring" keep_bounds_the_ring;
    case "notify fires per window" notify_fires_per_window;
    case "quantile series require a sink" quantiles_require_a_sink;
    case "metered run changes no metric" metered_run_changes_no_metric;
    case "restored windows match the uninterrupted run"
      restored_windows_match_the_uninterrupted_run;
    case "jsonl byte-identical across reruns" jsonl_is_byte_identical_across_reruns;
    case "jsonl one record per series per window" jsonl_records_are_one_per_series_per_window;
    case "prometheus grammar and uniqueness" prometheus_grammar_and_uniqueness;
    case "barrier jsonl identical across domain counts"
      barrier_jsonl_identical_across_domain_counts;
    case "flight dump writes header and ring" flight_dump_writes_header_and_ring;
    case "windows and save points match golden digests"
      windows_and_save_points_match_golden;
    case "prometheus and barrier windows match golden digests"
      prometheus_and_barrier_windows_match_golden;
  ]
