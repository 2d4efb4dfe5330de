type eviction = Flush_all | Evict_oldest

type fault_profile = {
  first_fault_step : int;
  smc_period : int;
  smc_span_blocks : int;
  translation_failure_period : int;
  translation_failure_window : int;
  async_exit_period : int;
  cache_shock_period : int;
  cache_shock_bytes : int;
  crash_period : int;
}

let no_faults =
  {
    first_fault_step = 0;
    smc_period = 0;
    smc_span_blocks = 0;
    translation_failure_period = 0;
    translation_failure_window = 0;
    async_exit_period = 0;
    cache_shock_period = 0;
    cache_shock_bytes = 0;
    crash_period = 0;
  }

let fault_profiles =
  [
    (* Everything at once: the bench degradation/recovery curves use this. *)
    ( "mixed",
      {
        first_fault_step = 20_000;
        smc_period = 60_000;
        smc_span_blocks = 4;
        translation_failure_period = 45_000;
        translation_failure_window = 2_000;
        async_exit_period = 25_000;
        cache_shock_period = 90_000;
        cache_shock_bytes = 4_096;
        crash_period = 0;
      } );
    (* Optimizer crash/restart: periodically lose every warm optimizer
       structure (cache, blacklist, counters, policy) while the program —
       and hence its PRNG streams — runs on. *)
    ( "crash",
      {
        no_faults with
        first_fault_step = 30_000;
        crash_period = 70_000;
      } );
    (* Self-modifying code only: periodic writes dirty a small block range. *)
    ( "smc",
      {
        no_faults with
        first_fault_step = 20_000;
        smc_period = 40_000;
        smc_span_blocks = 4;
      } );
    (* Flaky translator: every install in the armed window fails. *)
    ( "translation",
      {
        no_faults with
        first_fault_step = 20_000;
        translation_failure_period = 30_000;
        translation_failure_window = 2_000;
      } );
    (* Cache pressure: periodic shocks evict or flush resident regions. *)
    ( "pressure",
      {
        no_faults with
        first_fault_step = 20_000;
        cache_shock_period = 50_000;
        cache_shock_bytes = 4_096;
      } );
  ]

let fault_profile name = List.assoc_opt name fault_profiles

type t = {
  net_threshold : int;
  lei_threshold : int;
  lei_buffer_size : int;
  combine_t_prof : int;
  combine_t_min : int;
  combined_net_start : int;
  combined_lei_start : int;
  max_trace_insts : int;
  max_trace_blocks : int;
  mojo_exit_threshold : int;
  boa_threshold : int;
  method_threshold : int;
  cache_capacity_bytes : int option;
  cache_eviction : eviction;
  combined_layout_hot_first : bool;
  icache_size_bytes : int;
  icache_line_bytes : int;
  icache_ways : int;
  faults : fault_profile option;
  blacklist_base_cooldown : int;
  blacklist_max_shift : int;
  watchdog_window : int;
  watchdog_min_share : float;
  bailout_cooldown : int;
}

let default =
  {
    net_threshold = 50;
    lei_threshold = 35;
    lei_buffer_size = 500;
    combine_t_prof = 15;
    combine_t_min = 5;
    combined_net_start = 35;
    combined_lei_start = 20;
    max_trace_insts = 1024;
    max_trace_blocks = 64;
    mojo_exit_threshold = 25;
    boa_threshold = 15;
    method_threshold = 50;
    cache_capacity_bytes = None;
    cache_eviction = Flush_all;
    combined_layout_hot_first = true;
    icache_size_bytes = 256;
    icache_line_bytes = 16;
    icache_ways = 2;
    faults = None;
    blacklist_base_cooldown = 500;
    blacklist_max_shift = 6;
    watchdog_window = 2_000;
    watchdog_min_share = 0.2;
    bailout_cooldown = 4_000;
  }
