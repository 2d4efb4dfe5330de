open Regionsel_isa
module Telemetry = Regionsel_telemetry.Telemetry

type t = {
  program : Program.t;
  params : Params.t;
  cache : Code_cache.t;
  counters : Counters.t;
  gauges : Gauges.t;
  telemetry : Telemetry.sink;
}

let create ?(params = Params.default) ?(telemetry = Telemetry.none) program =
  {
    program;
    params;
    cache =
      Code_cache.create ?capacity_bytes:params.Params.cache_capacity_bytes
        ~eviction:params.Params.cache_eviction
        ~blacklist_base_cooldown:params.Params.blacklist_base_cooldown
        ~blacklist_max_shift:params.Params.blacklist_max_shift ~telemetry ~program
        ~icache_line_bytes:params.Params.icache_line_bytes ();
    counters = Counters.create program;
    gauges = Gauges.create ();
    telemetry;
  }
