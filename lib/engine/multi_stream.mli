(** The domain-sharded multi-stream scheduler.

    Multiplexes N independent tenant simulations — each with its own
    policy, stats, telemetry sink, fault schedule and PRNG stream — over
    OCaml 5 domains in bounded step batches ({!Domain_pool.iter} work
    stealing).  A run handle is owned by whichever domain is advancing it;
    domains synchronize only at batch barriers, where the main domain
    walks the tenants in submission order.  Every cross-tenant decision is
    a pure function of the barrier states, so the outcome is bit-identical
    whatever [n_domains] — and with no shared budget the tenants are fully
    independent: each tenant's result is bit-identical to running it alone
    through {!Simulator.run} (guarded by the multi-stream parity suite).

    With [budget_bytes], the tenants share a global code-cache byte
    budget.  Each barrier recomputes per-tenant quotas from the barrier
    footprints: the budget (less the frozen footprint of already-finished
    tenants) splits into fair shares; headroom the under-fair tenants are
    not using is granted to the over-fair ones, which otherwise evict down
    to their share ({!Code_cache.set_quota}) — cross-tenant eviction
    pressure.  Aggregate footprint never exceeds the budget at a barrier;
    between barriers it can transiently overshoot by at most the granted
    slack. *)

type outcome = {
  results : (string * Simulator.result) list;
      (** One per tenant, in submission order. *)
  rounds : int;  (** Batch barriers executed. *)
  quota_rejects : int;
      (** Installs rejected as [Quota_exceeded], summed over tenants. *)
  quota_evictions : int;
      (** Regions evicted by quota tightening, summed over tenants. *)
}

val fair_split : avail:int -> int array -> int array * int
(** The pure max-min-fair quota computation behind each barrier's
    rebalance, exposed for property testing.  [fair_split ~avail used]
    returns the per-tenant quotas plus the slack granted on top of the
    budget.  Conservation is exact: the quotas sum to [avail + slack]
    (so no remainder byte of an odd budget is ever silently dropped),
    every quota is at least the tenant's base share, and slack is granted
    only when some tenant's footprint exceeds its base share.
    @raise Invalid_argument on an empty tenant array or negative
    [avail]. *)

val run :
  ?n_domains:int ->
  ?batch_steps:int ->
  ?budget_bytes:int ->
  (string * Simulator.t) list ->
  outcome
(** [run tenants] advances every [(name, handle)] tenant — fresh from
    {!Simulator.create}, or restored — to completion in [batch_steps]
    batches (default 4096) over up to [n_domains] domains (default
    {!Domain_pool.default_n_domains}), then finishes each in submission
    order.  An empty list is a no-op outcome.

    @raise Invalid_argument on [batch_steps <= 0], a negative budget, or
    two tenants with the same name. *)

(** The incremental scheduler: the same batch-barrier rounds {!run}
    performs, but driven one round at a time by a caller that admits and
    retires tenants while the engine runs — the daemon front end.  Three
    additions over {!run}:

    - {e Typed admission}: {!Engine.admit} rejects a tenant when the
      slot limit is reached or when the shared cache budget, split over
      one more tenant, would drop fair shares below the configured floor
      — the backpressure signal the daemon turns into a typed reject
      frame instead of degrading every resident tenant.
    - {e Per-tenant step bounds}: each {!Engine.round} asks the caller
      for every tenant's current step limit, so an ingest-fed tenant
      never advances past its buffered events — running a replay stream
      dry would falsely read as a program halt.
    - {e Barrier observation}: {!Engine.create}'s [on_barrier] sees each
      round's participants — the daemon's metrics sampling point.

    Determinism carries over: admissions, retirements and limits are main
    -domain decisions between rounds, and within a round the outcome is a
    pure function of the barrier states, whatever [n_domains]. *)
module Engine : sig
  type admission_reject =
    | Tenants_saturated of { limit : int }
    | Budget_saturated of { budget : int; tenants : int; floor : int }
        (** Admitting a [tenants + 1]'th tenant would drop per-tenant
            fair shares of [budget] below [floor] bytes. *)
    | Duplicate_tenant of string

  val reject_to_string : admission_reject -> string

  type t

  val create :
    ?n_domains:int ->
    ?batch_steps:int ->
    ?budget_bytes:int ->
    ?quota_floor:int ->
    ?max_tenants:int ->
    ?on_barrier:(round:int -> (string * Simulator.t) array -> unit) ->
    unit ->
    t
  (** An empty engine.  [quota_floor] (default 0: never reject on
      budget) and [max_tenants] (default unlimited) are the admission
      knobs; [n_domains], [batch_steps] and [budget_bytes] are {!run}'s
      parameters with the same defaults.

      [on_barrier] is the metrics observation point: called on the main
      domain at the end of every {!round} — after the batch advance
      joins and after any quota rebalance — with the 1-based round
      number and this round's participants (name, handle) in submission
      order.  The hook may read tenant state ({!Simulator.sample},
      {!Simulator.steps}, {!Simulator.cache_bytes_used}) but must mutate
      nothing simulated; everything it can observe is a pure function of
      the barrier states, so what it sees is bit-identical whatever
      [n_domains].
      @raise Invalid_argument as {!run}, or on a negative floor. *)

  val admit : t -> name:string -> Simulator.t -> (unit, admission_reject) result
  (** Add a tenant, in submission order.  On success the quotas are
      rebalanced immediately, so the newcomer holds its fair share
      before its first batch. *)

  val retire : t -> name:string -> Simulator.t option
  (** Detach a tenant without finishing it (the daemon snapshots it
      next), returning its handle.  Its cache footprint leaves the
      shared budget at once: remaining tenants are rebalanced. *)

  val tenants : t -> (string * Simulator.t) list
  (** Current members in submission order. *)

  val rounds : t -> int

  val round : t -> limit:(name:string -> sim:Simulator.t -> int) -> bool
  (** Run one batch-barrier round over the tenants that can advance:
      not {!Simulator.exhausted} and current steps below [limit ~name
      ~sim] (an absolute step bound — the daemon passes the number of
      ingested events).  Each advances by at most [batch_steps], the
      quotas rebalance, and [on_barrier] ({!create}) observes the
      participants.  [false] — with no round counted and no barrier
      hook — when no tenant could advance. *)
end
