(** Tunable parameters of the simulated dynamic optimization system.

    Defaults follow the paper (see DESIGN.md for the per-parameter source):
    NET's published threshold of 50, LEI's 35 with a 500-entry history
    buffer, and the trace-combination settings [T_prof = 15], [T_min = 5]
    with start thresholds lowered so that regions are selected after the
    same number of interpreted executions as the underlying algorithm
    (Section 4.3). *)

type eviction =
  | Flush_all  (** Dynamo's policy: preemptively empty the whole cache. *)
  | Evict_oldest  (** FIFO: drop regions in selection order until it fits. *)

type fault_profile = {
  first_fault_step : int;
      (** Warm-up: no fault stream fires before this step. *)
  smc_period : int;
      (** Steps between self-modifying-code writes (0 = stream off).  Each
          write dirties a contiguous range of blocks, forcing every live
          region spanning the range to be invalidated. *)
  smc_span_blocks : int;  (** Blocks dirtied per SMC write. *)
  translation_failure_period : int;
      (** Steps between translation-failure windows (0 = off). *)
  translation_failure_window : int;
      (** Steps each failure window stays open: every install attempted
          inside it fails. *)
  async_exit_period : int;
      (** Steps between spurious asynchronous exits from region mode
          (signal delivery in a real system; 0 = off). *)
  cache_shock_period : int;  (** Steps between cache-pressure shocks (0 = off). *)
  cache_shock_bytes : int;
      (** Bytes each shock must reclaim (a whole flush under [Flush_all]). *)
  crash_period : int;
      (** Steps between optimizer crash/restarts (0 = off).  A crash loses
          every warm optimizer structure — code cache, blacklist, counter
          pool, policy state — while the program itself (and its PRNG
          streams) runs on, modelling a kill-and-restart of the dynamic
          optimizer under a persistent workload. *)
}

val no_faults : fault_profile
(** All streams off: a schedule that injects nothing.  A run with
    [faults = Some no_faults] must export metrics byte-identical to a run
    with [faults = None]. *)

val fault_profiles : (string * fault_profile) list
(** Named profiles for the CLI / bench ("mixed", "crash", "smc",
    "translation", "pressure"). *)

val fault_profile : string -> fault_profile option

type t = {
  net_threshold : int;  (** Execution count before NET selects a trace. *)
  lei_threshold : int;  (** LEI's [T_cyc]: counted cycle completions. *)
  lei_buffer_size : int;  (** LEI history buffer capacity (taken branches). *)
  combine_t_prof : int;  (** Observed traces per combined region. *)
  combine_t_min : int;  (** Occurrences for a block to be marked. *)
  combined_net_start : int;  (** [T_start] when combining NET traces. *)
  combined_lei_start : int;  (** [T_start] when combining LEI traces. *)
  max_trace_insts : int;  (** Trace size limit, instructions. *)
  max_trace_blocks : int;  (** Trace size limit, blocks. *)
  mojo_exit_threshold : int;
      (** Extension (Section 5): Mojo's lower threshold for trace-exit
          targets. *)
  boa_threshold : int;
      (** Extension (Section 5): BOA's entry threshold before a bias-directed
          trace is grown. *)
  method_threshold : int;
      (** Extension: invocation count before the whole-method policy
          compiles a function. *)
  cache_capacity_bytes : int option;
      (** Extension ablation: bound the code cache to this many bytes under
          the {!Region.cache_bytes} cost model ([None] = unbounded, the
          paper's setting). *)
  cache_eviction : eviction;
      (** What to do when a bounded cache overflows. *)
  combined_layout_hot_first : bool;
      (** Lay combined regions out hottest-block-first (the Section 4.4
          profile-guided layout); [false] uses address order (ablation). *)
  icache_size_bytes : int;
  icache_line_bytes : int;
  icache_ways : int;
      (** Geometry of the modelled I-cache.  The default (256 B, 16-byte
          lines, 2-way) is deliberately scaled down in proportion to the
          synthetic workloads' kilobyte-sized code caches, just as the
          workloads themselves are scaled-down SPEC stand-ins; a real
          32 KiB L1 would hold every toy region at once and show nothing. *)
  faults : fault_profile option;
      (** Deterministic fault schedule ([None] = clean run, the default —
          the zero-fault hot path is unchanged). *)
  blacklist_base_cooldown : int;
      (** Steps an entry is blacklisted after its first translation failure
          or invalidation; doubles per repeat failure. *)
  blacklist_max_shift : int;
      (** Cap on the exponential backoff: cooldown never exceeds
          [base lsl max_shift]. *)
  watchdog_window : int;
      (** Sliding-window width (steps) over which the bailout watchdog
          samples the cached-instruction share. *)
  watchdog_min_share : float;
      (** Bail out when the windowed share drops below this fraction of its
          previous peak while faults are active. *)
  bailout_cooldown : int;
      (** Steps of pure interpretation after a watchdog bailout. *)
}

val default : t
