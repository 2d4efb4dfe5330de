(** Runtime invariant sanitizer for the region pipeline.

    Two layers, both pure observation (a checked run computes the same
    metrics as an unchecked one, it just refuses to finish silently when
    the structures disagree):

    - {!audit_cache} walks the code cache and cross-checks every redundant
      structure against every other: the dispatch array's claims and
      liveness, the FIFO against the dispatch array (tombstone
      accounting), the per-region link slots against the dispatch array
      and target liveness,
      the byte ledger, the telemetry span ledger, and the step clock.
      These are the DESIGN.md "Checked invariants" (see that section for
      the rule-by-rule rationale).

    - {!create} ({!checked_run}) wraps a run with a differential oracle: a
      second, pure interpreter shadow-steps the run with
      [Interp.step_reference] and every executed
      (block, branch outcome, target) triple must match — region dispatch,
      compiled automata, fragment links and fault recovery may change
      {e where} metrics are attributed, never {e what} the program
      executes.  It also installs {!audit_cache} behind the cache's
      auditor hook so every mutating cache operation is audited at the
      step it happens.

    Violations raise {!Check_violation} with the failing rule's name, the
    step, and a human-readable explanation — the fuzz driver
    ([regionsel_fuzz]) turns the first one into a shrunk reproducer. *)

type violation = {
  step : int;  (** Simulation step at which the rule failed. *)
  rule : string;  (** Stable rule name, e.g. ["dispatch-live"]. *)
  detail : string;  (** Human-readable explanation. *)
}

exception Check_violation of violation

val violation_to_string : violation -> string

val audit_cache :
  ?telemetry:Regionsel_telemetry.Telemetry.t ->
  program:Regionsel_isa.Program.t ->
  Regionsel_engine.Code_cache.t ->
  step:int ->
  unit
(** Audit every cache invariant, raising {!Check_violation} (stamped with
    [step]) on the first failure.  Rules, in checking order:

    - ["dispatch-live"]: every dispatch slot holds a live region.
    - ["dispatch-claim"]: that region claims the slot's block as its entry
      or one of its aux entries.
    - ["fifo-accounting"]: the live FIFO elements, counted by walking the
      FIFO, number [fifo_length - fifo_tombstones].
    - ["fifo-tombstones"]: tombstones never exceed [max 8] live regions.
    - ["link-live"] / ["link-dispatch"]: a patched link slot targets a live
      region and agrees with the dispatch array ({e no link outlives its
      target}).
    - ["bytes-accounting"]: [bytes_used] equals the summed
      [Region.cache_bytes] of the live regions.
    - ["clock-monotone"]: [Code_cache.set_now] was never handed a stale
      step.
    - ["quota-accounting"]: with a quota set ([Code_cache.set_quota]), the
      live footprint fits it — the multi-stream budget invariant.
    - ["span-open"] / ["span-ledger"] (with [telemetry]): the open
      telemetry spans are exactly the live regions. *)

val create :
  ?params:Regionsel_engine.Params.t ->
  ?seed:int64 ->
  ?telemetry:Regionsel_telemetry.Telemetry.t ->
  ?audit_every:int ->
  ?break_at:int ->
  ?restore:(Regionsel_engine.Simulator.internals -> unit) ->
  ?record:Regionsel_engine.Branch_stream.events ->
  ?replay:Regionsel_engine.Branch_stream.events ->
  policy:(module Regionsel_engine.Policy.S) ->
  max_steps:int ->
  Regionsel_workload.Image.t ->
  Regionsel_engine.Simulator.t * (unit -> Regionsel_engine.Simulator.result)
(** [Simulator.create] under the sanitizer: the sanitized handle plus its
    finisher.  Drive the handle like
    any other ({!Simulator.advance}, metrics windows, save points through
    {!Simulator.internals}), then call the finisher in place of
    [Simulator.finish]: it finishes the run and applies the end-of-run
    checks below.
    A shadow interpreter with the same image and seed is stepped in
    lockstep; any divergence in executed block, branch outcome or target
    raises (rules ["oracle-halt"], ["oracle-block"], ["oracle-branch"],
    ["oracle-target"]).  The shadow steps with [Interp.step_reference],
    so this is also a differential of the threaded dispatch against the
    match-based one.  Region mode's believed position is checked against
    the interpreter's ground truth every step (["region-position"]), and
    at the end of the run the interpreted and cached instruction counts
    and the node-step count must equal what the believed positions
    account for (["insts-accounting"]: a step with no believed block is
    interpreted, any other is one cached node step).  {!audit_cache} runs
    after every mutating cache operation, every [audit_every] steps
    (default 64; [0] disables the periodic sweep), and once after the
    run; the final sweep also checks
    that every telemetry span closed with [retired_at >= installed_at]
    (["span-duration"]) and that installs and closed spans agree
    (["span-count"]).

    [telemetry] supplies the recorder to audit against (a fresh one is
    created otherwise); it is threaded into the run as its sink, so a
    caller exporting traces audits the very recorder it exports.  The
    finished result reports telemetry only from a recorder the caller
    passed: without one its [ctx.telemetry] is [Telemetry.none], as in a
    plain run, so the run's metrics are the plain run's, and the handle's
    {!Simulator.internals} carry no telemetry section, so its snapshots
    are the plain run's byte for byte.

    [break_at] is the fuzz driver's self-test hook: from that step on, the
    first live region's entry slot is deliberately cleared from the
    dispatch array ([Code_cache.unsafe_corrupt_for_tests]) — a healthy sanitizer must
    then raise.  Never set it outside tests.

    [restore] passes through to [Simulator.create]; on restore the shadow
    oracle is fast-forwarded to the restored interpreter
    position, so a checked run can resume a snapshot without spurious
    divergence reports, and ["insts-accounting"] compares the counters'
    growth since the restore.

    [record] and [replay] pass through to [Simulator.create].  A checked
    {e replay} is a strong oracle: the recorded events are cross-checked
    step by step against the shadow interpreter, so a recording that does
    not reproduce the live program's exact branch stream raises rather
    than silently skewing metrics. *)

val checked_run :
  ?params:Regionsel_engine.Params.t ->
  ?seed:int64 ->
  ?telemetry:Regionsel_telemetry.Telemetry.t ->
  ?audit_every:int ->
  ?break_at:int ->
  ?restore:(Regionsel_engine.Simulator.internals -> unit) ->
  ?record:Regionsel_engine.Branch_stream.events ->
  ?replay:Regionsel_engine.Branch_stream.events ->
  policy:(module Regionsel_engine.Policy.S) ->
  max_steps:int ->
  Regionsel_workload.Image.t ->
  Regionsel_engine.Simulator.result
(** [Simulator.run] under the sanitizer: {!create}, then its finisher. *)
