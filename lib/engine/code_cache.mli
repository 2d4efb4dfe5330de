(** The code cache: installed regions, indexed by the program's block ids.

    As in the paper's framework (Section 2.3) the cache is unbounded by
    default.  A capacity (under the {!Region.cache_bytes} cost model) can
    be set for the bounded-cache ablation, with either of two overflow
    policies: Dynamo's preemptive whole-cache flush, or FIFO eviction of
    the oldest regions.  Evicted regions are retired — kept for metrics but
    no longer dispatchable — and re-selecting an entry that was previously
    evicted counts as a {e regeneration}, the cost the paper argues its
    fewer-larger-regions algorithms reduce.

    The cache is also the recovery substrate of the fault model (see
    DESIGN.md "Fault model & recovery invariants"): regions can be
    {e invalidated} when a code write dirties their span, installs can fail
    (flaky translation), and entries that repeatedly fail are
    {e blacklisted} with exponential backoff so they stop being re-selected
    for a growing cooldown. *)

open Regionsel_isa

type t

type reject =
  | Duplicate_entry  (** A live region with the same entry exists. *)
  | Blacklisted  (** The entry is in a blacklist cooldown. *)
  | Translation_failed  (** An injected translation-failure window is open. *)
  | Quota_exceeded
      (** The region alone is larger than the tenant's byte quota, so no
          amount of eviction can admit it (see {!set_quota}). *)

val reject_to_string : reject -> string

val create :
  ?capacity_bytes:int ->
  ?eviction:Params.eviction ->
  ?blacklist_base_cooldown:int ->
  ?blacklist_max_shift:int ->
  ?telemetry:Regionsel_telemetry.Telemetry.sink ->
  program:Program.t ->
  icache_line_bytes:int ->
  unit ->
  t
(** An empty cache for the regions of [program].  Every table it keeps —
    the dispatch array, the evicted-entry set, the blacklist, the link
    registry — is an array indexed by [Program.block_id] (or, for links
    into a region, by region id).  It is unbounded unless
    [capacity_bytes] is given.  [icache_line_bytes] sizes the icache line
    spans each placed region precomputes ({!Region.set_cache_base}).  Pass
    [telemetry] to emit lifecycle events (install, evict/flush,
    invalidate, link patch/sever, blacklist add/expire) stamped with the
    {!set_now} step; the default sink is a no-op and the events are pure
    observation — no cache decision ever depends on the sink. *)

val find : t -> Addr.t -> Region.t option
(** The live region dispatchable at the given address: the region whose
    entry it is, or the region claiming it as an aux entry.  An address
    inside a region's body (and one that is not a block start) is not a
    hit.  One read of the dispatch array. *)

val dispatch : t -> int -> Region.t option
(** [dispatch t block_id] is {!find} by block id — the simulator's
    per-transition probe.  Returns [None] for out-of-range ids (such as
    [Program.block_id]'s [-1] for a non-start address). *)

val mem : t -> Addr.t -> bool
(** Whether {!find} has a hit. *)

val add_link : t -> from:Region.t -> slot:int -> target:Region.t -> unit
(** Patch [from]'s exit stub for block id [slot] to jump straight to
    [target] (fragment linking).  First link through a slot wins; only
    call it immediately after {!dispatch} on [slot] returned [target], so
    the link agrees with the dispatch array.  The cache registers the link
    and severs it automatically — the invariant is {e no link may outlive
    its target region} — when the target is retired by any path
    ({!invalidate_range}, {!shock}, {!flush_all}, eviction) or when a new
    install claims the slot's block id. *)

val n_links : t -> int
(** Links currently live (patched exit stubs). *)

val links_created : t -> int
(** Links ever patched in. *)

val link_severs : t -> int
(** Links unpatched because their target was retired or their slot's block
    id was reclaimed by a new install. *)

val is_live : t -> Region.t -> bool
(** Whether this exact region (physical identity) still owns its entry's
    dispatch slot. *)

val install : t -> Region.spec -> (Region.t, reject) result
(** Install a region, assigning it the next id and selection sequence
    number, evicting under the configured policy if the cache would
    overflow.  A duplicate entry, a blacklisted entry, or an armed
    translation-failure window yields [Error] instead of raising, so
    invalidation/regeneration races surface as policy-visible outcomes.
    @raise Invalid_argument if the spec's entry or one of its nodes is not
    a block start of the program (see {!Region.of_spec}). *)

val install_exn : t -> Region.spec -> Region.t
(** {!install}, raising on rejection — for tests and harnesses where
    rejection is a bug.
    @raise Invalid_argument on any [Error]. *)

val invalidate_range : t -> lo:Addr.t -> hi:Addr.t -> Region.t list
(** Retire every live region one of whose constituent blocks intersects
    the address range [[lo, hi]] (a self-modifying-code write), including
    their aux-entry dispatch slots, and blacklist each retired entry.  Returns
    the retired regions in selection order. *)

val shock : t -> bytes:int -> Region.t list
(** Apply cache pressure that must reclaim [bytes]: a whole flush under
    [Flush_all], oldest-first eviction until freed under [Evict_oldest].
    Returns the retired regions. *)

val flush_all : t -> Region.t list
(** Retire every live region and count one flush (the bailout watchdog's
    hammer).  Returns the retired regions in selection order. *)

val set_quota : t -> int option -> Region.t list
(** Set or clear the runtime byte quota — a scheduler-imposed bound (the
    tenant's share of a global budget) that tightens [capacity_bytes] for
    as long as it is set: installs evict under [min capacity quota], and a
    region larger than the quota is rejected outright with
    [Quota_exceeded].  Tightening the quota below the current footprint
    evicts oldest-first (whatever the configured eviction policy — global
    budget pressure is not the tenant's fault, so a whole-cache flush
    would be out of proportion) until the footprint fits; the evicted
    regions are returned so the caller can deliver invalidations.  The
    quota is runtime state, not part of snapshots: whoever imposed it
    re-imposes it after a restore.
    @raise Invalid_argument on a negative quota. *)

val quota : t -> int option
(** The current quota, if one is set. *)

val quota_rejects : t -> int
(** Installs rejected with [Quota_exceeded]. *)

val quota_evictions : t -> int
(** Regions evicted by {!set_quota} tightening (a subset of the evictions
    counter). *)

val arm_translation_failures : t -> window:int -> unit
(** Make every install within the next [window] steps (measured against
    {!set_now}) fail with [Translation_failed].  A new window extends, but
    never shortens, an open one. *)

val set_now : t -> int -> unit
(** Advance the cache's notion of the current step, which blacklist
    cooldowns are measured against.  Monotonic: an earlier step is clamped
    (never applied) and counted in {!clock_regressions} so the sanitizer
    can flag the non-monotone caller. *)

val now : t -> int
(** The current step as last advanced by {!set_now}. *)

val clock_regressions : t -> int
(** Times {!set_now} was handed a step earlier than the current one.  The
    simulator's stamps are monotone by construction, so this is 0 on every
    healthy run — a sanitizer rule under [--check]. *)

val blacklisted_until : t -> Addr.t -> int
(** The step until which the entry is blacklisted (0 = never failed). *)

val n_blacklisted : t -> int
(** Entries currently inside a blacklist cooldown. *)

val regions : t -> Region.t list
(** Live regions, in selection order. *)

val all_regions : t -> Region.t list
(** Live and retired regions, in selection order: the population metrics
    should be computed over. *)

val n_regions : t -> int
(** Live regions: FIFO elements minus tombstones. *)

val bytes_used : t -> int
(** Live footprint under the cost model. *)

val icache_line_bytes : t -> int
(** The icache line size the placed regions' node spans are computed for.
    The simulator builds its icache with this size, so the two cannot
    disagree. *)

val evictions : t -> int
(** Regions retired by capacity pressure (including flushes and shocks). *)

val flushes : t -> int
(** Whole-cache flushes performed. *)

val regenerations : t -> int
(** Installs whose entry had previously been evicted or invalidated. *)

val invalidations : t -> int
(** Regions retired by {!invalidate_range}. *)

val blacklist_hits : t -> int
(** Installs rejected because their entry was in a blacklist cooldown. *)

val duplicate_installs : t -> int
(** Installs rejected as duplicates. *)

val translation_failures : t -> int
(** Installs failed by an armed translation-failure window. *)

val region_by_id : t -> int -> Region.t option
(** The live region with the given id, if any (linear in the FIFO; cold
    callers only). *)

(** {1 Checkpoint support} *)

val save : t -> (int -> unit) -> unit
(** Serialize every region ever created (live and retired), the FIFO with
    its tombstones, the aux-entry claims, the evicted-entry set, the live
    link graph and all counters — everything except the blacklist, which
    has its own section (see {!save_blacklist}) so it can degrade
    independently. *)

val load : t -> (unit -> int) -> unit
(** Restore a {!save} stream into a freshly created cache over the same
    program.  Decode-then-commit: the stream is fully parsed and
    cross-validated before the first mutation, so on [Failure] /
    [Invalid_argument] the cache is untouched.  Rejected, among others: an
    aux or evicted entry that is not a block start, an aux claim by a
    retired region or on a claimed slot, and two live regions sharing an
    entry.  Emits no telemetry and fires no auditor. *)

val save_blacklist : t -> (int -> unit) -> unit
(** Serialize the blacklist (per-entry failure counts, backoff deadlines)
    and the translation-failure window. *)

val load_blacklist : t -> (unit -> int) -> unit
(** Restore a {!save_blacklist} stream, replacing the current blacklist.
    Raises [Failure], changing nothing, on a malformed stream (including
    an entry that is not a block start). *)

val reset_blacklist : t -> unit
(** Forget every blacklist entry and any armed translation-failure window
    (an optimizer crash loses this state along with the cache). *)

(** {1 Sanitizer hooks}

    Introspection used by [Regionsel_check.Check] to audit the DESIGN.md
    invariants from outside the module.  Pure observation: none of these
    mutate the cache (except {!unsafe_corrupt_for_tests}, which exists to
    prove the sanitizer catches real corruption). *)

val set_auditor : t -> (string -> unit) -> unit
(** Install a callback invoked with the operation name after every mutating
    operation ("install", "evict", "flush", "invalidate", "add-link") and
    on a {!set_now} clock regression ("set-now").  The callback must not
    mutate the cache.  With no auditor installed (the default) each call
    site costs one compare. *)

val clear_auditor : t -> unit

val fifo_length : t -> int
(** Elements in the install-order FIFO, live regions plus tombstones. *)

val fifo_tombstones : t -> int
(** Retired regions still occupying FIFO slots.  Bounded: the queue is
    compacted once tombstones outnumber live regions (above a small floor),
    so tombstones never exceed [max 8 (n_regions t)] between operations.
    The FIFO elements that are live ({!is_live}) number exactly
    [fifo_length t - fifo_tombstones t]. *)

val unsafe_corrupt_for_tests : t -> bool
(** Deliberately desynchronize the FIFO and the dispatch array (clear one
    live region's entry slot, leaving its FIFO element in place) so tests
    can prove the sanitizer fires.  [false] if the cache had no live
    region to corrupt.  Never call this outside a test or the fuzz
    driver's self-test mode. *)
