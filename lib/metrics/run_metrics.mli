(** The full metric record of one simulated run: everything the paper's
    evaluation plots, computed from a {!Regionsel_engine.Simulator.result}. *)

type t = {
  benchmark : string;
  policy : string;
  stats : Regionsel_engine.Stats.t;
      (** A snapshot of the run's counters.  The steps, region transitions,
          dispatches, links, link hits, node steps, install rejects,
          injected faults, async exits, bailouts and recovery steps the
          paper's evaluation reports are read from here. *)
  halted : bool;
  total_insts : int;
  hit_rate : float;
  n_regions : int;
  code_expansion : int;  (** Instructions copied into the cache. *)
  n_stubs : int;
  avg_region_insts : float;
  spanned_cycle_ratio : float;
      (** Share of selected regions containing a branch to their own top. *)
  executed_cycle_ratio : float;
      (** Share of region executions that end by branching to the top. *)
  cover_90 : int;
  cover_90_achievable : bool;
  counters_high_water : int;
  observed_bytes_high_water : int;  (** Figure 18 numerator. *)
  est_cache_bytes : int;
      (** Figure 18 denominator: instruction bytes + stub bytes. *)
  exit_dominated_regions : int;
  exit_dominated_fraction : float;  (** Figure 12. *)
  exit_dominated_dup_insts : int;
  exit_dominated_dup_fraction : float;  (** Figure 11. *)
  link_severs : int;
      (** Links unpatched because their target region was retired or their
          slot was reclaimed. *)
  links_high_water : int;  (** Peak number of simultaneously live patched links. *)
  icache_accesses : int;
  icache_misses : int;
  icache_miss_rate : float;
      (** Miss rate of the modelled I-cache over code-cache fetches: the
          direct locality instrument (lower = better layout). *)
  evictions : int;  (** Bounded-cache ablation: regions retired. *)
  cache_flushes : int;
  regenerations : int;  (** Re-selections of previously evicted entries. *)
  invalidations : int;
      (** Fault runs: regions retired because an SMC write dirtied their
          span. *)
  blacklist_hits : int;  (** Installs rejected by a blacklist cooldown. *)
  blacklisted_high_water : int;
      (** Peak number of simultaneously blacklisted entries. *)
  telemetry : (int * int * int * int) option;
      (** [(events_emitted, events_dropped, spans_open, spans_closed)]
          from the run's telemetry sink — ring-loss and span-ledger
          visibility without exporting a trace.  [None] for sink-less
          runs, whose JSON stays byte-identical to earlier versions;
          {!pp} never prints it, so the human report is identical with
          and without a tracer. *)
}

val inst_bytes : int
(** Bytes per instruction in the cache-size estimate (an alias of
    {!Regionsel_engine.Region.inst_bytes}). *)

val stub_bytes : int
(** Bytes per exit stub in the cache-size estimate (an alias of
    {!Regionsel_engine.Region.stub_bytes}). *)

val of_result : ?x:float -> Regionsel_engine.Simulator.result -> t
(** [of_result result] computes all metrics; [x] is the cover-set target
    (default 0.9). *)

val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** One JSON object with every metric in a fixed order (the [stats]
    counters named above at their own keys), floats printed with [%.17g]
    (lossless): runs with identical metrics produce
    byte-identical output, which the CI checkpoint round-trip gate diffs
    directly. *)
