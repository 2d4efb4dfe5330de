(** Property-based fuzz harness over the sanitizer.

    A {!case} is a fully deterministic point in the test matrix: a compact
    genome (expanded into a workload program exactly as the qcheck fuzz
    suite expands it), a policy, an optional fault profile and a step
    budget.  {!run_case} executes it under [Check.checked_run] with a
    per-step audit: the shadow-interpreter oracle, the region-position and
    instruction-accounting rules, and the cache audit.  {!run_seed} sweeps
    one seed's genome across every policy × fault profile.

    The first failure {!shrink}s greedily — drop the fault profile, drop
    genes, halve gene values, clamp the budget to the failing step — to a
    minimal case whose {!cli_line} replays it from the command line. *)

type case = {
  seed : int;  (** Simulation seed (branch behaviour). *)
  genome : int list;  (** Workload genome; see {!image_of_genome}. *)
  policy : string;  (** A [Regionsel_core.Policies] name. *)
  fault : string option;  (** A [Params.fault_profile] name, if any. *)
  max_steps : int;
}

val image_of_genome : int list -> Regionsel_workload.Image.t
(** Expand a genome into a compiled workload image: each gene adds one
    function whose shape (leaf, plain/diamond/nested loop, call loop) and
    parameters derive from the gene value, plus a driver loop over all of
    them.  An empty genome is treated as [[1]]. *)

val cli_line : case -> string
(** A [regionsel_fuzz] invocation replaying exactly this case. *)

val run_case : ?break_at:int -> ?audit_every:int -> case -> Check.violation option
(** Run one case under the sanitizer ([audit_every] defaults to 1: a full
    cache audit every step); [Some] is the first violation.  [break_at]
    threads through to [Check.checked_run] (self-test only). *)

val run_seed : ?max_steps:int -> int -> (case * Check.violation) option * int
(** Derive a genome from the seed and sweep it across every policy and
    every fault profile (including none) with {!run_case}.  Returns
    the first failing case, if any, and the number of cases run
    ([max_steps] defaults to 4000 per case). *)

type snapshot_outcome =
  | Snapshot_clean
      (** Every section restored; the continued run finished bit-identical
          to the uninterrupted one. *)
  | Snapshot_degraded of int
      (** [n] sections dropped; the cache passed {!Check.audit_cache}
          immediately after the restore and the run completed. *)
  | Snapshot_rejected  (** [Persist.Hard_corruption]: nothing restored. *)

type snapshot_summary = {
  snap_cases : int;  (** Restores attempted (control + corruptions). *)
  snap_clean : int;
  snap_degraded : int;
  snap_rejected : int;
}

val run_snapshot_seed :
  ?corruptions:int -> ?max_steps:int -> int -> (case * string) option * snapshot_summary
(** The snapshot-corruption axis for one seed: derive a case (genome,
    policy and fault profile all keyed off the seed), capture a [Persist]
    snapshot halfway through the run, then restore the pristine snapshot
    plus [corruptions] (default 50) mutants of it —
    random byte flips, truncations, garbage tails — each into a fresh
    run.  Every restore must end in one of the three
    {!snapshot_outcome}s; the first that instead raises an unhandled
    exception, fails the immediate post-restore cache audit, or silently
    diverges after a clean restore is returned as [(case, detail)].
    [max_steps] (default 3000) bounds each run. *)

val run_streams_seed : ?max_steps:int -> int -> (case list * string) option * int
(** The multi-stream axis for one seed: a fleet of 2-4 tenants with
    their own genomes, cycling through the policy and fault tables
    ([max_steps] defaults to 3000 per tenant).  Each tenant first runs
    solo under the full sanitizer (a solo violation shrinks through
    {!shrink} and is reported as a one-tenant fleet); then the fleet is
    multiplexed through [Multi_stream.run] (batch 512) and checked
    against the scheduler's contracts: without a budget every tenant's result must be
    bit-identical to its solo run, and with a shared budget (derived from
    the fleet's unconstrained footprint) the outcome — every tenant's
    counters and region entries, the quota counters, the round count —
    must be identical on 1 and 2 domains, with
    every final cache passing {!Check.audit_cache} (including the
    quota-accounting rule).  A failing fleet shrinks to a single-tenant
    reproducer when one exists, else to a minimal tenant subset.  Returns
    the shrunk fleet and a detail line, if any, plus the fleet size. *)

val shrink : case -> Check.violation -> case * Check.violation
(** Greedily minimize a failing case (re-validating with {!run_case}
    after every candidate edit) until no single edit — dropping the fault,
    dropping a gene, halving a gene, clamping or halving the budget —
    still fails.  Returns the minimal case and its violation. *)

val flight_dump :
  ?window:int ->
  ?params:Regionsel_engine.Params.t ->
  case ->
  Check.violation ->
  path:string ->
  int
(** Write the crash flight record for a failing case: re-run it (cases
    are deterministic) with a small-window metrics recorder
    ({!Regionsel_obs.Metrics}), stopping just short of a violation's
    failing step, and dump the retained window ring to [path] as JSONL
    headed by the reproducer CLI line and the failure detail.  The re-run
    is unsanitized — it records the honest metric history leading up to
    the crash.  Always writes at least one window (a failure inside the
    first window ships a zero-step end-state sample).  Returns the number
    of windows written. *)

val self_test : ?flight:string -> unit -> (int, string) result
(** Prove the sanitizer catches real corruption: run a tiny hot loop with
    a low selection threshold and [break_at = 1], so the first installed
    region's entry slot is silently cleared from the dispatch array, then
    shrink the step budget of the resulting violation.  [Ok budget] is the
    minimal budget that still reproduces (the acceptance bound is 20);
    [Error] means the corruption went uncaught — the sanitizer is broken.
    With [flight], a {!flight_dump} of the shrunk reproducer is written
    there — the CI assertion that crash dumps actually appear on the
    failure path. *)
