(* Windowed metrics: time-series sampling over the engine's frozen-counter
   machinery (Stats.snapshot / Stats.diff), exported as Prometheus text
   exposition or append-only JSONL.

   A recorder holds a static label set (tenant, policy, dispatch mode) and
   a baseline snapshot; each [sample] closes one window — the counter
   activity since the previous sample, the cache/gauge occupancy at the
   sample point, and (with a telemetry sink) cumulative log2-quantile
   summaries.  Solo runs sample at absolute step boundaries as [advance]
   drives them; multi-stream tenants are sampled at batch barriers on the
   main domain (the engine's [on_barrier]).  Everything here is pure
   observation and byte-deterministic: no wall clock, fixed series order,
   fixed float formatting — two runs with the same seed produce identical
   exports, whatever the domain count. *)

module Stats = Regionsel_engine.Stats
module Context = Regionsel_engine.Context
module Code_cache = Regionsel_engine.Code_cache
module Simulator = Regionsel_engine.Simulator
module Telemetry = Regionsel_telemetry.Telemetry

let default_window = 4096

type value = Int of int | Float of float

type window = {
  w_labels : (string * string) list;
  w_index : int;
  w_start_step : int;
  w_end_step : int;
  w_values : (string * value) list;
}

type recorder = {
  r_labels : (string * string) list;
  r_every : int;
  r_keep : int option;
  r_notify : (window -> unit) option;
  mutable r_seen : bool;  (* the baseline below has been taken from a run *)
  mutable r_prev : Stats.t;
  mutable r_prev_evictions : int;
  mutable r_prev_quota_rejects : int;
  mutable r_count : int;
  r_windows : window Queue.t;  (* oldest first, at most [r_keep] long *)
}

let create ?(window = default_window) ?keep ?notify ~labels () =
  if window <= 0 then invalid_arg "Metrics.create: window must be positive";
  (match keep with
  | Some k when k <= 0 -> invalid_arg "Metrics.create: keep must be positive"
  | Some _ | None -> ());
  {
    r_labels = labels;
    r_every = window;
    r_keep = keep;
    r_notify = notify;
    r_seen = false;
    r_prev = Stats.create ();
    r_prev_evictions = 0;
    r_prev_quota_rejects = 0;
    r_count = 0;
    r_windows = Queue.create ();
  }

let n_windows r = r.r_count

let windows r = List.of_seq (Queue.to_seq r.r_windows)

let newest k ws =
  let drop = List.length ws - k in
  List.filteri (fun i _ -> i >= drop) ws

(* Upper bound of the log2 bucket where the cumulative count crosses the
   quantile rank — the standard reading of a log2 histogram. *)
let quantile h q =
  let n = Telemetry.Hist.count h in
  if n = 0 then 0
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    let rank = if rank < 1 then 1 else if rank > n then n else rank in
    let rec go cum = function
      | [] -> Telemetry.Hist.max_value h
      | (_, hi, c) :: rest ->
        let cum = cum + c in
        if cum >= rank then hi else go cum rest
    in
    go 0 (Telemetry.Hist.buckets h)

let quants_of_sink = function
  | None -> []
  | Some t ->
    let three name h =
      [
        (name ^ "_p50", Int (quantile h 0.50));
        (name ^ "_p90", Int (quantile h 0.90));
        (name ^ "_p99", Int (quantile h 0.99));
      ]
    in
    three "residency" (Telemetry.residency t)
    @ three "trace_length" (Telemetry.trace_length t)
    @ three "time_to_first_link" (Telemetry.time_to_first_link t)

(* What a series is derived from: the counter activity inside the window,
   the cache evictions and quota rejects inside it, and the cache at its
   end. *)
type reading = { d : Stats.t; evicted : int; quota_rejected : int; cache : Code_cache.t }

let per_step n (x : reading) = Float (float_of_int n /. float_of_int (max 1 x.d.Stats.steps))

(* Every windowed series, once: (name, Prometheus HELP text, derivation),
   in the fixed order every exporter follows.  The quantile series of a
   run with a telemetry sink come after these. *)
let series =
  [
    ("steps", "Steps executed in the last window", fun x -> Int x.d.Stats.steps);
    ("insts", "Instructions executed in the last window", fun x -> Int (Stats.total_insts x.d));
    ( "cached_share", "Share of window instructions executed from the code cache",
      fun x -> Float (Stats.hit_rate x.d) );
    ( "steps_per_transition", "Window steps per region transition",
      fun x ->
        let t = x.d.Stats.region_transitions in
        Float (if t = 0 then 0.0 else float_of_int x.d.Stats.steps /. float_of_int t) );
    ( "dispatch_rate", "Cache dispatches per window step",
      fun x -> per_step x.d.Stats.dispatches x );
    ("install_rate", "Region installs per window step", fun x -> per_step x.d.Stats.installs x);
    ( "install_reject_rate", "Rejected installs per window step",
      fun x -> per_step x.d.Stats.install_rejects x );
    ("evict_rate", "Cache evictions per window step", fun x -> per_step x.evicted x);
    ( "quota_reject_rate", "Quota-rejected installs per window step",
      fun x -> per_step x.quota_rejected x );
    ("bailouts", "Watchdog bailouts entered in the last window", fun x -> Int x.d.Stats.bailouts);
    ( "recovery_steps", "Bailout recovery steps in the last window",
      fun x -> Int x.d.Stats.recovery_steps );
    ( "blacklist_occupancy", "Blacklisted entries at window end",
      fun x -> Int (Code_cache.n_blacklisted x.cache) );
    ( "cache_bytes", "Code cache bytes used at window end",
      fun x -> Int (Code_cache.bytes_used x.cache) );
    ("live_regions", "Live regions at window end", fun x -> Int (Code_cache.n_regions x.cache));
    ( "live_links", "Patched fragment links at window end",
      fun x -> Int (Code_cache.n_links x.cache) );
  ]

let push r w =
  r.r_count <- r.r_count + 1;
  Queue.add w r.r_windows;
  (* Flight-recorder mode: retain only the newest [k] windows. *)
  (match r.r_keep with
  | Some k when Queue.length r.r_windows > k -> ignore (Queue.take r.r_windows)
  | Some _ | None -> ());
  match r.r_notify with None -> () | Some fn -> fn w

let rebase r ~stats ~ctx =
  let cache = ctx.Context.cache in
  r.r_seen <- true;
  r.r_prev <- Stats.snapshot stats;
  r.r_prev_evictions <- Code_cache.evictions cache;
  r.r_prev_quota_rejects <- Code_cache.quota_rejects cache

(* A recorder's baseline is the run as it first sees it: zero counters
   for a fresh run, the restored ones for a resumed run, so the first
   window covers only steps this recorder watched. *)
let attach r sim =
  if not r.r_seen then Simulator.sample sim (fun ~step:_ ~stats ~ctx -> rebase r ~stats ~ctx)

let sample r ~step ~stats ~ctx =
  let cache = ctx.Context.cache in
  let x =
    {
      d = Stats.diff ~earlier:r.r_prev ~later:stats;
      evicted = max 0 (Code_cache.evictions cache - r.r_prev_evictions);
      quota_rejected = max 0 (Code_cache.quota_rejects cache - r.r_prev_quota_rejects);
      cache;
    }
  in
  let start = r.r_prev.Stats.steps in
  rebase r ~stats ~ctx;
  push r
    {
      w_labels = r.r_labels;
      w_index = r.r_count;
      w_start_step = start;
      w_end_step = step;
      w_values =
        List.map (fun (name, _, derive) -> (name, derive x)) series
        @ quants_of_sink ctx.Context.telemetry;
    }

let rec advance r sim ~upto =
  attach r sim;
  let step = Simulator.steps sim in
  let boundary = step - (step mod r.r_every) + r.r_every in
  if boundary > upto then Simulator.advance sim ~upto
  else begin
    Simulator.advance sim ~upto:boundary;
    if Simulator.steps sim = boundary then begin
      Simulator.sample sim (sample r);
      advance r sim ~upto
    end
  end

let finalize r (result : Simulator.result) =
  (* Close the final partial window, if the run ended off-boundary. *)
  if result.Simulator.stats.Stats.steps > r.r_prev.Stats.steps then
    sample r ~step:result.Simulator.stats.Stats.steps ~stats:result.Simulator.stats
      ~ctx:result.Simulator.ctx

(* --- Exporters -------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let value_to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.17g" f

let add_jsonl_window buf w =
  let labels_json =
    String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
         w.w_labels)
  in
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"series\":\"%s\",\"labels\":{%s},\"window\":%d,\"start_step\":%d,\"end_step\":%d,\"value\":%s}\n"
           (json_escape name) labels_json w.w_index w.w_start_step w.w_end_step
           (value_to_string v)))
    w.w_values

let to_jsonl ws =
  let buf = Buffer.create 4096 in
  List.iter (add_jsonl_window buf) ws;
  Buffer.contents buf

(* Exports publish atomically (tmp + fsync + rename, the persist layer's
   pattern): a concurrent scraper — or the daemon's control connection —
   never observes a torn file, only the previous complete export or this
   one. *)
let write_jsonl ~path ws =
  Regionsel_persist.Io.write_atomic ~path (Bytes.of_string (to_jsonl ws))

let help_of name =
  match List.find_opt (fun (n, _, _) -> String.equal n name) series with
  | Some (_, help, _) -> help
  | None when String.equal name "windows_total" -> "Windows sampled for this label set"
  | None ->
    if Filename.check_suffix name "_p50" || Filename.check_suffix name "_p90"
       || Filename.check_suffix name "_p99"
    then "Log2-bucket quantile upper bound, cumulative at window end"
    else "Windowed series"

let prom_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_labels ls =
  if ls = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v)) ls)
    ^ "}"

(* One scrape-ready snapshot: the newest window of every label set (first
   seen order), one sample per series.  Uniqueness holds by construction:
   one window per label set, one value per series name within a window. *)
let to_prometheus ws =
  let keys = ref [] in
  let last = Hashtbl.create 8 in
  List.iter
    (fun w ->
      let key = prom_labels w.w_labels in
      if not (Hashtbl.mem last key) then keys := key :: !keys;
      Hashtbl.replace last key w)
    ws;
  let keys = List.rev !keys in
  let series_names = ref [] in
  List.iter
    (fun key ->
      let w = Hashtbl.find last key in
      List.iter
        (fun (name, _) ->
          if not (List.mem name !series_names) then series_names := name :: !series_names)
        w.w_values)
    keys;
  let series_names = List.rev !series_names @ [ "windows_total" ] in
  let buf = Buffer.create 4096 in
  List.iter
    (fun name ->
      let metric = "regionsel_" ^ name in
      let kind = if String.equal name "windows_total" then "counter" else "gauge" in
      let lines =
        List.filter_map
          (fun key ->
            let w = Hashtbl.find last key in
            if String.equal name "windows_total" then
              Some (Printf.sprintf "%s%s %d\n" metric key (w.w_index + 1))
            else
              Option.map
                (fun v -> Printf.sprintf "%s%s %s\n" metric key (value_to_string v))
                (List.assoc_opt name w.w_values))
          keys
      in
      if lines <> [] then begin
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" metric (help_of name));
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" metric kind);
        List.iter (Buffer.add_string buf) lines
      end)
    series_names;
  Buffer.contents buf

let write_prometheus ~path ws =
  Regionsel_persist.Io.write_atomic ~path (Bytes.of_string (to_prometheus ws))

(* --- Live status ------------------------------------------------------ *)

let find_int w name =
  match List.assoc_opt name w.w_values with Some (Int i) -> i | _ -> 0

let find_float w name =
  match List.assoc_opt name w.w_values with
  | Some (Float f) -> f
  | Some (Int i) -> float_of_int i
  | None -> 0.0

let status_line w =
  let label k = match List.assoc_opt k w.w_labels with Some v -> v | None -> "-" in
  Printf.sprintf
    "[metrics] tenant=%s policy=%s win=%d steps=%d..%d cached=%.1f%% spt=%.1f inst/kstep=%.2f rej/kstep=%.2f blk=%d bytes=%d regions=%d"
    (label "tenant") (label "policy") w.w_index w.w_start_step w.w_end_step
    (100.0 *. find_float w "cached_share")
    (find_float w "steps_per_transition")
    (1000.0 *. find_float w "install_rate")
    (1000.0 *. find_float w "install_reject_rate")
    (find_int w "blacklist_occupancy")
    (find_int w "cache_bytes") (find_int w "live_regions")

(* --- Flight recorder -------------------------------------------------- *)

let default_flight_keep = 16

let flight_dump ~path ~cli ?(detail = "") ws =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\"flight\":1,\"cli\":\"%s\",\"detail\":\"%s\",\"windows\":%d}\n"
       (json_escape cli) (json_escape detail) (List.length ws));
  List.iter (add_jsonl_window buf) ws;
  Regionsel_persist.Io.write_atomic ~path (Buffer.to_bytes buf);
  List.length ws
