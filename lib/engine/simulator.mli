(** The dynamic optimization system simulator (the paper's Figure 1).

    Execution alternates between the interpreter and the code cache:

    - While interpreting, every executed block is delivered to the policy;
      on a {e taken} branch whose target is a cached region entry, control
      dispatches into the cache.
    - While in a region, control follows internal edges.  An exit whose
      target is another cached region's entry is a linked jump (counted as a
      region transition); an exit to the region's own entry completes a
      cycle; any other exit returns to the interpreter and is reported to
      the policy.

    When the policy installs a region whose entry is the pending transfer
    target, control enters it immediately (the paper's "jump newT").

    With [params.faults] set, a deterministic {!Faults} schedule is applied
    at exact step indices: SMC writes invalidate spanning regions (the
    policy sees {!Policy.Region_invalidated}), translation failures make
    installs fail, async exits kick execution out of region mode, and cache
    shocks evict.  A watchdog monitors the windowed cached-instruction
    share and bails out to pure interpretation for a cooldown when
    selection thrashes.  With [params.faults = None] (the default) none of
    this machinery runs and all exported metrics are identical to earlier
    versions of the engine. *)

type result = {
  image : Regionsel_workload.Image.t;
  policy_name : string;
  ctx : Context.t;  (** Final cache, counters and gauges. *)
  stats : Stats.t;
  edges : Edge_profile.t;
  icache : Icache.t;
      (** Instruction-cache model fed by every fetch from the code cache:
          the locality instrument behind the paper's separation claims. *)
  halted : bool;  (** Whether the program ran to completion within budget. *)
  fault_log : Faults.log option;
      (** Fault runs only: the injected events plus the windowed
          cached-share samples — the degradation/recovery curve. *)
}

type observer = {
  on_context : Context.t -> unit;
      (** Called once, right after the run's [Context] (and hence its code
          cache) is created — the sanitizer installs its cache auditor
          here. *)
  on_step :
    step:int ->
    block:Regionsel_isa.Block.t ->
    taken:bool ->
    next:Regionsel_isa.Addr.t ->
    believed:Regionsel_isa.Addr.t ->
    unit;
      (** Called after every interpreter step, before the mode handlers run:
          [block]/[taken]/[next] are the interpreter's ground truth for the
          step, [believed] is the start address region mode believes it just
          executed ([Addr.none] while interpreting).  The loop invariant —
          the sanitizer's divergence rule — is [believed = block.start]
          whenever in region mode. *)
}
(** Sanitizer hook ([Regionsel_check.Check]): a per-run observer with no
    effect on the simulation.  With [observer = None] (the default) the
    loop pays one compare per step; metrics are identical either way. *)

type section = {
  sec_name : string;  (** Stable identifier ("interp", "cache", "loop", …). *)
  sec_save : (int -> unit) -> unit;
      (** Serialize the section's current state as a flat int stream.  Pure
          observation: saving changes no simulated outcome. *)
  sec_load : (unit -> int) -> unit;
      (** Replace the section's state from a saved stream.  Raises
          [Failure] on a malformed stream, in which case the section keeps
          its fresh (run-start) state — the caller treats it as degraded
          and the subsystem re-warms from scratch. *)
}
(** One independently recoverable unit of warm state.  The persistence
    layer ([Regionsel_persist.Persist]) frames, checksums and versions
    each section separately so corruption degrades section by section. *)

type internals = {
  int_ctx : Context.t;
  int_stats : Stats.t;
  int_sections : section list;
      (** In save order, which is also the required load order: the final
          "loop" section resolves its current-region reference against the
          already-restored code cache. *)
}
(** The checkpoint surface handed to the [restore] hook and returned by
    {!internals}: everything warm about the run, as named sections. *)

type t
(** A resumable run: the same simulation {!run} performs, but advanced in
    caller-bounded step batches.  This handle is the one way to drive a
    run: metrics windows ([Regionsel_obs.Metrics.advance]) and save points
    (advance to the step, save {!internals}, then {!finish}) are both
    caller loops over {!advance}.  The multi-stream scheduler
    ({!Multi_stream}) multiplexes many of these over domains; a handle's
    state is owned by whichever domain is currently advancing it, with
    hand-offs only at batch boundaries. *)

val create :
  ?params:Params.t ->
  ?seed:int64 ->
  ?telemetry:Regionsel_telemetry.Telemetry.sink ->
  ?save_telemetry:bool ->
  ?observer:observer ->
  ?restore:(internals -> unit) ->
  ?record:Branch_stream.events ->
  ?replay:Branch_stream.events ->
  policy:(module Policy.S) ->
  max_steps:int ->
  Regionsel_workload.Image.t ->
  t
(** Set up a run without stepping it (the [restore] hook, if any, fires
    here).  [record] tees every executed branch event into the given
    recording, which, if empty, is first bound to the image's program
    ({!Branch_stream.bind}), so it holds each event as its packed field;
    [replay] substitutes a recorded stream for the live
    interpreter as the branch-event source — a replayed run over a
    recording of a live run with the same params, seed, policy and budget
    is bit-identical to that live run.  Recording and replaying are not
    meaningfully combined with mid-run snapshot restore (the stream cursor
    is not part of the snapshot).  [save_telemetry] (default [true]) says
    whether {!internals} carries a "telemetry" section for the sink: an
    auditor that lends the run a private recorder passes [false], so the
    run saves and restores exactly what a sink-less run does. *)

val advance : t -> upto:int -> unit
(** Step until the step count reaches [min upto max_steps], the program
    halts, or the stream ends.  Monotone: an [upto] at or below the
    current count is a no-op. *)

val finish : t -> result
(** Run any remaining budget, then finalize (final edge-profile flush,
    fault-log assembly).  Idempotent: further calls
    return the same result.  [run] is exactly [create] + [finish]. *)

val steps : t -> int
val halted : t -> bool

val exhausted : t -> bool
(** No more stepping will happen: the budget is spent or the run halted. *)

val set_cache_quota : t -> int option -> unit
(** Set or clear this run's code-cache byte quota ({!Code_cache.set_quota});
    regions evicted to fit are reported to the policy as invalidations,
    exactly like fault-driven evictions.  Called by the multi-stream
    scheduler at batch boundaries. *)

val cache_bytes_used : t -> int

val sample : t -> (step:int -> stats:Stats.t -> ctx:Context.t -> unit) -> unit
(** Observe the run's live counters between advances: calls the function
    with the current step count, stats and context.  The multi-stream
    scheduler's barrier sampling and end-of-run partial-window flushes use
    this; the callback must be pure observation.
    Only safe from whichever domain currently owns the handle (at batch
    barriers, the scheduler's main domain). *)

val internals : t -> internals
(** The run's checkpoint surface, for snapshots between advances.  A save
    point at step [N] is [advance ~upto:N], a save through these
    internals, then {!finish}: the advance is monotone, so a run restored
    past [N] saves at once, at the step it resumed from.  [max_int]
    saves after the last step, before end-of-run finalization.  The
    daemon's disconnect/shutdown path saves the same way, at an external
    event instead of a step.  Saving is pure observation; same ownership
    rule as {!sample}. *)

val run :
  ?params:Params.t ->
  ?seed:int64 ->
  ?telemetry:Regionsel_telemetry.Telemetry.sink ->
  ?observer:observer ->
  ?restore:(internals -> unit) ->
  ?record:Branch_stream.events ->
  ?replay:Branch_stream.events ->
  policy:(module Policy.S) ->
  max_steps:int ->
  Regionsel_workload.Image.t ->
  result
(** [run ~policy ~max_steps image] simulates [image] under [policy] for at
    most [max_steps] executed blocks. The [seed] (default [1L]) drives all
    branch behaviour.  Pass [telemetry] to record region-lifecycle events
    (selection, install, dispatch, link patch/sever, eviction,
    invalidation, fault delivery, bailout enter/exit, blacklist
    add/expire) into its ring buffer; the default sink is a no-op and
    recording is pure observation — enabling it changes no simulated
    outcome (guarded by the parity suite).

    [restore] is called once before the first step; loading a snapshot
    saved at step [N] (see {!internals}) through it and continuing is
    bit-identical — metrics, telemetry, PRNG streams — to the
    uninterrupted run, provided params, seed, image and policy match.

    With [params.faults] naming a profile with a [crash_period], crash
    events kill the warm optimizer mid-run: the cache is flushed, the
    blacklist, live counters and policy state are reset, and execution
    falls back to the interpreter — the program itself and the run's
    accumulated metrics persist. *)
