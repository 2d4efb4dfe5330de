module Simulator = Regionsel_engine.Simulator
module Stats = Regionsel_engine.Stats
module Region = Regionsel_engine.Region
module Code_cache = Regionsel_engine.Code_cache
module Context = Regionsel_engine.Context
module Counters = Regionsel_engine.Counters
module Gauges = Regionsel_engine.Gauges
module Edge_profile = Regionsel_engine.Edge_profile
module Image = Regionsel_workload.Image

type t = {
  benchmark : string;
  policy : string;
  stats : Stats.t;
  halted : bool;
  total_insts : int;
  hit_rate : float;
  n_regions : int;
  code_expansion : int;
  n_stubs : int;
  avg_region_insts : float;
  spanned_cycle_ratio : float;
  executed_cycle_ratio : float;
  cover_90 : int;
  cover_90_achievable : bool;
  counters_high_water : int;
  observed_bytes_high_water : int;
  est_cache_bytes : int;
  exit_dominated_regions : int;
  exit_dominated_fraction : float;
  exit_dominated_dup_insts : int;
  exit_dominated_dup_fraction : float;
  link_severs : int;
  links_high_water : int;
  icache_accesses : int;
  icache_misses : int;
  icache_miss_rate : float;
  evictions : int;
  cache_flushes : int;
  regenerations : int;
  invalidations : int;
  blacklist_hits : int;
  blacklisted_high_water : int;
  telemetry : (int * int * int * int) option;
}

let inst_bytes = Region.inst_bytes
let stub_bytes = Region.stub_bytes

let of_result ?(x = 0.9) (result : Simulator.result) =
  let cache = result.Simulator.ctx.Context.cache in
  (* Metrics cover every region ever selected, including any retired by a
     bounded cache. *)
  let regions = Code_cache.all_regions cache in
  let n_regions = List.length regions in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 regions in
  let code_expansion = sum (fun (r : Region.t) -> r.Region.copied_insts) in
  let n_stubs = sum (fun (r : Region.t) -> r.Region.n_stubs) in
  let n_cyclic =
    List.length (List.filter (fun (r : Region.t) -> r.Region.spans_cycle) regions)
  in
  let cycles = sum (fun (r : Region.t) -> r.Region.cycle_iters) in
  let exits = sum (fun (r : Region.t) -> r.Region.exits) in
  let total_insts = Stats.total_insts result.Simulator.stats in
  let cover = Cover.compute ~x ~total_insts regions in
  let dom =
    Exit_domination.analyze ~regions ~preds:(Edge_profile.preds result.Simulator.edges)
  in
  let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den in
  {
    benchmark = result.Simulator.image.Image.name;
    policy = result.Simulator.policy_name;
    stats = Stats.snapshot result.Simulator.stats;
    halted = result.Simulator.halted;
    total_insts;
    hit_rate = Stats.hit_rate result.Simulator.stats;
    n_regions;
    code_expansion;
    n_stubs;
    avg_region_insts = ratio code_expansion n_regions;
    spanned_cycle_ratio = ratio n_cyclic n_regions;
    executed_cycle_ratio = ratio cycles (cycles + exits);
    cover_90 = cover.Cover.size;
    cover_90_achievable = cover.Cover.achievable;
    counters_high_water = Counters.high_water result.Simulator.ctx.Context.counters;
    observed_bytes_high_water =
      Gauges.observed_bytes_high_water result.Simulator.ctx.Context.gauges;
    est_cache_bytes = (code_expansion * inst_bytes) + (n_stubs * stub_bytes);
    exit_dominated_regions = dom.Exit_domination.n_dominated;
    exit_dominated_fraction = dom.Exit_domination.dominated_fraction;
    exit_dominated_dup_insts = dom.Exit_domination.dup_insts;
    exit_dominated_dup_fraction = dom.Exit_domination.dup_fraction;
    link_severs = Code_cache.link_severs cache;
    links_high_water = Gauges.links_high_water result.Simulator.ctx.Context.gauges;
    icache_accesses = Regionsel_engine.Icache.accesses result.Simulator.icache;
    icache_misses = Regionsel_engine.Icache.misses result.Simulator.icache;
    icache_miss_rate = Regionsel_engine.Icache.miss_rate result.Simulator.icache;
    evictions = Code_cache.evictions cache;
    cache_flushes = Code_cache.flushes cache;
    regenerations = Code_cache.regenerations cache;
    invalidations = Code_cache.invalidations cache;
    blacklist_hits = Code_cache.blacklist_hits cache;
    blacklisted_high_water =
      Gauges.blacklisted_high_water result.Simulator.ctx.Context.gauges;
    (* Ring-loss and span-ledger visibility without exporting a trace
       file.  Only populated when the run carried a sink: a sink-less
       run's JSON must stay byte-identical to pre-telemetry output. *)
    telemetry =
      (match result.Simulator.ctx.Context.telemetry with
      | None -> None
      | Some tel ->
        Some
          ( Regionsel_telemetry.Telemetry.n_emitted tel,
            Regionsel_telemetry.Telemetry.n_dropped tel,
            Regionsel_telemetry.Telemetry.n_open_spans tel,
            List.length (Regionsel_telemetry.Telemetry.spans tel) ));
  }

(* Machine-readable dump: fixed field order, [%.17g] floats (lossless for
   binary64), so two runs with identical metrics produce byte-identical
   JSON — the checkpoint round-trip gate in CI diffs this output. *)
let to_json t =
  let s = t.stats in
  let b = Buffer.create 1024 in
  let first = ref true in
  let field k v =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_string b (Printf.sprintf "  %S: %s" k v)
  in
  let str k v = field k (Printf.sprintf "%S" v) in
  let int k v = field k (string_of_int v) in
  let boolean k v = field k (if v then "true" else "false") in
  let flt k v = field k (if Float.is_finite v then Printf.sprintf "%.17g" v else "null") in
  Buffer.add_string b "{\n";
  str "benchmark" t.benchmark;
  str "policy" t.policy;
  int "steps" s.Stats.steps;
  boolean "halted" t.halted;
  int "total_insts" t.total_insts;
  flt "hit_rate" t.hit_rate;
  int "n_regions" t.n_regions;
  int "code_expansion" t.code_expansion;
  int "n_stubs" t.n_stubs;
  flt "avg_region_insts" t.avg_region_insts;
  flt "spanned_cycle_ratio" t.spanned_cycle_ratio;
  flt "executed_cycle_ratio" t.executed_cycle_ratio;
  int "region_transitions" s.Stats.region_transitions;
  int "dispatches" s.Stats.dispatches;
  int "cover_90" t.cover_90;
  boolean "cover_90_achievable" t.cover_90_achievable;
  int "counters_high_water" t.counters_high_water;
  int "observed_bytes_high_water" t.observed_bytes_high_water;
  int "est_cache_bytes" t.est_cache_bytes;
  int "exit_dominated_regions" t.exit_dominated_regions;
  flt "exit_dominated_fraction" t.exit_dominated_fraction;
  int "exit_dominated_dup_insts" t.exit_dominated_dup_insts;
  flt "exit_dominated_dup_fraction" t.exit_dominated_dup_fraction;
  int "links" s.Stats.links;
  int "link_hits" s.Stats.link_hits;
  int "link_severs" t.link_severs;
  int "links_high_water" t.links_high_water;
  int "node_steps" s.Stats.node_steps;
  int "icache_accesses" t.icache_accesses;
  int "icache_misses" t.icache_misses;
  flt "icache_miss_rate" t.icache_miss_rate;
  int "evictions" t.evictions;
  int "cache_flushes" t.cache_flushes;
  int "regenerations" t.regenerations;
  int "invalidations" t.invalidations;
  int "blacklist_hits" t.blacklist_hits;
  int "install_rejects" s.Stats.install_rejects;
  int "faults_injected" s.Stats.faults_injected;
  int "async_exits" s.Stats.async_exits;
  int "bailouts" s.Stats.bailouts;
  int "recovery_steps" s.Stats.recovery_steps;
  int "blacklisted_high_water" t.blacklisted_high_water;
  (match t.telemetry with
  | None -> ()
  | Some (emitted, dropped, spans_open, spans_closed) ->
    int "telemetry_events_emitted" emitted;
    int "telemetry_events_dropped" dropped;
    int "telemetry_spans_open" spans_open;
    int "telemetry_spans_closed" spans_closed);
  Buffer.add_string b "\n}";
  Buffer.contents b

let pp ppf t =
  let s = t.stats in
  Format.fprintf ppf
    "@[<v>%s / %s:@,\
    \  steps=%d halted=%b total_insts=%d@,\
    \  hit_rate=%.4f regions=%d expansion=%d stubs=%d avg_region=%.1f@,\
    \  spanned_cycle=%.3f executed_cycle=%.3f transitions=%d dispatches=%d@,\
    \  cover90=%d%s counters_hw=%d observed_hw=%dB cache=%dB@,\
    \  exit_dom regions=%d (%.3f) dup_insts=%d (%.3f)@,\
    \  links=%d link_hits=%d link_severs=%d links_hw=%d node_steps=%d@]" t.benchmark t.policy
    s.Stats.steps t.halted t.total_insts t.hit_rate t.n_regions t.code_expansion t.n_stubs
    t.avg_region_insts t.spanned_cycle_ratio t.executed_cycle_ratio s.Stats.region_transitions
    s.Stats.dispatches t.cover_90
    (if t.cover_90_achievable then "" else "(unachievable)")
    t.counters_high_water t.observed_bytes_high_water t.est_cache_bytes t.exit_dominated_regions
    t.exit_dominated_fraction t.exit_dominated_dup_insts t.exit_dominated_dup_fraction s.Stats.links
    s.Stats.link_hits t.link_severs t.links_high_water s.Stats.node_steps;
  if s.Stats.faults_injected > 0 then
    Format.fprintf ppf
      "@\n\
      \  faults=%d invalidations=%d blacklist_hits=%d rejects=%d async_exits=%d bailouts=%d \
       recovery_steps=%d blacklisted_hw=%d"
      s.Stats.faults_injected t.invalidations t.blacklist_hits s.Stats.install_rejects
      s.Stats.async_exits s.Stats.bailouts s.Stats.recovery_steps t.blacklisted_high_water
