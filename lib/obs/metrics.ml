(* Windowed metrics: time-series sampling over the engine's frozen-counter
   machinery (Stats.snapshot / Stats.diff), exported as Prometheus text
   exposition or append-only JSONL.

   A recorder holds a static label set (tenant, policy, dispatch mode) and
   a baseline snapshot; each [sample] closes one window — the counter
   activity since the previous sample, the cache/gauge occupancy at the
   sample point, and (with a telemetry sink) cumulative log2-quantile
   summaries.  Solo runs sample at absolute step boundaries as [advance]
   drives them; multi-stream fleets sample at batch barriers on the main
   domain ({!Fleet}).  Everything here is pure observation and
   byte-deterministic: no wall clock, fixed series order, fixed float
   formatting — two runs with the same seed produce identical exports,
   whatever the domain count. *)

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

(* One window's raw material, kept separate from the derived series so the
   fleet aggregate can sum deltas across tenants before deriving rates. *)
type delta = {
  d_start : int;
  d_end : int;
  d_stats : Stats.t;
  d_evictions : int;
  d_quota_rejects : int;
  g_blacklisted : int;
  g_cache_bytes : int;
  g_regions : int;
  g_links : int;
  quants : (string * value) list;  (* cumulative at window end; [] sink-less *)
}

type recorder = {
  r_labels : (string * string) list;
  r_every : int;
  r_keep : int option;
  r_notify : (window -> unit) option;
  mutable r_prev : Stats.t;
  mutable r_prev_evictions : int;
  mutable r_prev_quota_rejects : int;
  mutable r_count : int;
  mutable r_rev : window list;  (* newest first, bounded by [r_keep] *)
}

let zero_snapshot = Stats.snapshot (Stats.create ())

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
    r_prev = zero_snapshot;
    r_prev_evictions = 0;
    r_prev_quota_rejects = 0;
    r_count = 0;
    r_rev = [];
  }

let labels r = r.r_labels
let window_size r = r.r_every
let n_windows r = r.r_count

let windows r = List.rev r.r_rev

let last_windows r k =
  let rec take n acc = function
    | w :: rest when n > 0 -> take (n - 1) (w :: acc) rest
    | _ -> acc
  in
  take k [] r.r_rev

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

let delta_of r ~step ~stats ~ctx =
  let later = Stats.snapshot stats in
  let d = Stats.diff ~earlier:r.r_prev ~later in
  let start = r.r_prev.Stats.steps in
  r.r_prev <- later;
  let cache = ctx.Context.cache in
  let evictions = Code_cache.evictions cache in
  let quota_rejects = Code_cache.quota_rejects cache in
  let d_evictions = max 0 (evictions - r.r_prev_evictions) in
  let d_quota_rejects = max 0 (quota_rejects - r.r_prev_quota_rejects) in
  r.r_prev_evictions <- evictions;
  r.r_prev_quota_rejects <- quota_rejects;
  {
    d_start = start;
    d_end = step;
    d_stats = d;
    d_evictions;
    d_quota_rejects;
    g_blacklisted = Code_cache.n_blacklisted cache;
    g_cache_bytes = Code_cache.bytes_used cache;
    g_regions = Code_cache.n_regions cache;
    g_links = Code_cache.n_links cache;
    quants = quants_of_sink ctx.Context.telemetry;
  }

(* The fixed series order every exporter follows. *)
let series_of_delta d =
  let s = d.d_stats in
  let steps = s.Stats.steps in
  let fsteps = float_of_int (max 1 steps) in
  let rate n = Float (float_of_int n /. fsteps) in
  let insts = s.Stats.interpreted_insts + s.Stats.cached_insts in
  let cached_share =
    if insts = 0 then 0.0 else float_of_int s.Stats.cached_insts /. float_of_int insts
  in
  let steps_per_transition =
    if s.Stats.region_transitions = 0 then 0.0
    else float_of_int steps /. float_of_int s.Stats.region_transitions
  in
  [
    ("steps", Int steps);
    ("insts", Int insts);
    ("cached_share", Float cached_share);
    ("steps_per_transition", Float steps_per_transition);
    ("dispatch_rate", rate s.Stats.dispatches);
    ("install_rate", rate s.Stats.installs);
    ("install_reject_rate", rate s.Stats.install_rejects);
    ("evict_rate", rate d.d_evictions);
    ("quota_reject_rate", rate d.d_quota_rejects);
    ("bailouts", Int s.Stats.bailouts);
    ("recovery_steps", Int s.Stats.recovery_steps);
    ("blacklist_occupancy", Int d.g_blacklisted);
    ("cache_bytes", Int d.g_cache_bytes);
    ("live_regions", Int d.g_regions);
    ("live_links", Int d.g_links);
  ]
  @ d.quants

let push r w =
  r.r_count <- r.r_count + 1;
  r.r_rev <- w :: r.r_rev;
  (match r.r_keep with
  | Some k ->
    (* Flight-recorder mode: retain only the newest [k] windows. *)
    if r.r_count > k then
      r.r_rev <- List.filteri (fun i _ -> i < k) r.r_rev
  | None -> ());
  match r.r_notify with None -> () | Some fn -> fn w

let window_of_delta r d =
  {
    w_labels = r.r_labels;
    w_index = r.r_count;
    w_start_step = d.d_start;
    w_end_step = d.d_end;
    w_values = series_of_delta d;
  }

let sample r ~step ~stats ~ctx =
  let d = delta_of r ~step ~stats ~ctx in
  push r (window_of_delta r d)

let rec advance r sim ~upto =
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

let output_jsonl oc ws = output_string oc (to_jsonl ws)

(* Exports publish atomically (tmp + fsync + rename, the persist layer's
   pattern): a concurrent scraper — or the daemon's control connection —
   never observes a torn file, only the previous complete export or this
   one. *)
let write_jsonl ~path ws =
  Regionsel_persist.Io.write_atomic ~path (Bytes.of_string (to_jsonl ws))

let help_of = function
  | "steps" -> "Steps executed in the last window"
  | "insts" -> "Instructions executed in the last window"
  | "cached_share" -> "Share of window instructions executed from the code cache"
  | "steps_per_transition" -> "Window steps per region transition"
  | "dispatch_rate" -> "Cache dispatches per window step"
  | "install_rate" -> "Region installs per window step"
  | "install_reject_rate" -> "Rejected installs per window step"
  | "evict_rate" -> "Cache evictions per window step"
  | "quota_reject_rate" -> "Quota-rejected installs per window step"
  | "bailouts" -> "Watchdog bailouts entered in the last window"
  | "recovery_steps" -> "Bailout recovery steps in the last window"
  | "blacklist_occupancy" -> "Blacklisted entries at window end"
  | "cache_bytes" -> "Code cache bytes used at window end"
  | "live_regions" -> "Live regions at window end"
  | "live_links" -> "Patched fragment links at window end"
  | "windows_total" -> "Windows sampled for this label set"
  | s ->
    if Filename.check_suffix s "_p50" || Filename.check_suffix s "_p90"
       || Filename.check_suffix s "_p99"
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

(* --- Multi-stream fleets ---------------------------------------------- *)

module Fleet = struct
  type t = {
    f_tenants : (string * recorder) list;  (* submission order *)
    f_aggregate : recorder;
    f_notify : (window -> unit) option;
  }

  let create ?keep ?notify ?(aggregate_labels = [ ("tenant", "fleet") ]) tenants =
    {
      f_tenants =
        List.map (fun (name, labels) -> (name, create ?keep ?notify ~labels ())) tenants;
      f_aggregate = create ?keep ?notify ~labels:aggregate_labels ();
      f_notify = notify;
    }

  let recorder t name = List.assoc_opt name t.f_tenants

  let zero_delta =
    {
      d_start = max_int;
      d_end = 0;
      d_stats = zero_snapshot;
      d_evictions = 0;
      d_quota_rejects = 0;
      g_blacklisted = 0;
      g_cache_bytes = 0;
      g_regions = 0;
      g_links = 0;
      quants = [];
    }

  let add_delta a b =
    {
      d_start = min a.d_start b.d_start;
      d_end = max a.d_end b.d_end;
      d_stats = Stats.sum a.d_stats b.d_stats;
      d_evictions = a.d_evictions + b.d_evictions;
      d_quota_rejects = a.d_quota_rejects + b.d_quota_rejects;
      g_blacklisted = a.g_blacklisted + b.g_blacklisted;
      g_cache_bytes = a.g_cache_bytes + b.g_cache_bytes;
      g_regions = a.g_regions + b.g_regions;
      g_links = a.g_links + b.g_links;
      (* Quantiles are per-tenant series; the aggregate carries none. *)
      quants = [];
    }

  (* The {!Multi_stream.run} [on_barrier] hook: sample each of this round's
     tenants in submission order, then close one fleet-aggregate window
     summing the per-tenant deltas.  Runs on the main domain only; every
     observed value is a pure function of the barrier states, so the
     emitted windows are byte-identical whatever the domain count. *)
  let on_barrier t ~round:_ active =
    let agg = ref zero_delta in
    let sampled = ref false in
    Array.iter
      (fun (name, sim) ->
        match recorder t name with
        | None -> ()
        | Some r ->
          Simulator.sample sim (fun ~step ~stats ~ctx ->
              let d = delta_of r ~step ~stats ~ctx in
              push r (window_of_delta r d);
              sampled := true;
              agg := add_delta !agg d))
      active;
    if !sampled then begin
      let d = !agg in
      let d = if d.d_start = max_int then { d with d_start = 0 } else d in
      push t.f_aggregate (window_of_delta t.f_aggregate d)
    end

  let tenant_windows t = List.map (fun (name, r) -> (name, windows r)) t.f_tenants
  let aggregate_windows t = windows t.f_aggregate

  let all_windows t =
    List.concat_map (fun (_, r) -> windows r) t.f_tenants @ windows t.f_aggregate
end
