(** A set-associative instruction-cache model over the code cache.

    The paper's case for locality (Sections 1 and 2.2) is instruction-fetch
    performance: separated traces live far apart in the code cache, so
    region transitions cost I-cache misses, and duplication inflates the
    working set.  This model quantifies that: regions are laid out at real
    byte addresses in the code cache (see {!Code_cache.address_of}), every
    instruction fetched from a region touches the cache, and the miss rate
    compares selection policies on the locality axis directly.

    Replacement is LRU.  Every simulator run builds its cache from
    {!Params.t}'s [icache_*] fields, 256 B, 16-byte lines, 2-way by
    default: a geometry scaled down with the synthetic workloads' code
    caches, and the one the kernel's inline 2-way path serves.
    {!create}'s own defaults (32 KiB, 64-byte lines, 4-way, a typical
    2005-era L1 I-cache) apply only to callers that build a cache
    directly. *)

type t

val create : ?size_bytes:int -> ?line_bytes:int -> ?ways:int -> unit -> t
(** @raise Invalid_argument if the geometry is not a power-of-two set
    count. *)

val access : t -> addr:int -> bytes:int -> unit
(** Fetch [bytes] starting at byte address [addr], touching every line the
    range covers. *)

val access_lines : t -> first:int -> last:int -> unit
(** Fetch lines [first] to [last] inclusive, where a line number is a byte
    address divided by the line size [l]: {!access} over a precomputed
    span.  [access t ~addr ~bytes] is [access_lines t ~first:(addr / l)
    ~last:((addr + bytes - 1) / l)] for [bytes > 0]. *)

val fetch_span : t -> clock:int -> first:int -> last:int -> int
(** {!access_lines} for a caller that carries the counters itself: fetch
    lines [first] to [last] as the accesses at times [clock + 1],
    [clock + 2], ..., and return how many missed, leaving the counters
    alone.  The caller adds [last - first + 1] to its clock, adds the
    result to its misses, and stores both with {!store_counters} before
    anything else reads or fetches. *)

val clock : t -> int
(** The LRU clock: one tick per line fetched. *)

val store_counters : t -> clock:int -> misses:int -> unit
(** Store the counters a {!fetch_span} caller carried. *)

val accesses : t -> int
(** Line-granularity accesses so far: every fetched line ticks the clock
    once, so this is {!clock}. *)

val misses : t -> int

val miss_rate : t -> float
(** [misses / accesses]; 0 before any access. *)

val reset : t -> unit
(** Clear contents and counters. *)

val save : t -> (int -> unit) -> unit
(** Checkpoint support: emit tags, LRU stamps, and counters as a flat int
    stream.  Geometry is not saved. *)

val load : t -> (unit -> int) -> unit
(** Restore a {!save} stream into a cache created with the same geometry.
    Raises [Failure] if the slot counts differ, the stream is short, or
    its access count differs from its clock, and then leaves the cache as
    it was. *)
