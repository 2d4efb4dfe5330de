(** Region-lifecycle event tracing and histogram telemetry.

    A bounded ring buffer of packed-int lifecycle events emitted from
    the hot paths of the engine (region install/evict/invalidate, link
    patch/sever, dispatch, bailout enter/exit, fault delivery, blacklist
    add/expire), each stamped with the step count at which it happened,
    plus log2-bucketed histograms for region residency, time-to-first-link,
    selected-trace length and blacklist cooldown duration.

    The buffer starts at 1024 events and doubles as events arrive, up to
    its capacity; from then on the oldest events are overwritten
    ({!n_dropped} counts the casualties).  Emission writes four ints into
    the array — no allocation beyond those few doublings, no branching
    beyond the sink and growth checks — so a tracer-on run stays inside
    the bench-smoke regression gate, and a tracer-off run
    ([sink = None], the default everywhere) costs one immediate-value
    compare per emission site.

    Region install/retire events additionally feed a {e span ledger} kept
    outside the ring, so per-region lifetime spans survive ring overwrite
    and {!spans} can reconstruct every install→retirement pair regardless
    of buffer capacity (see DESIGN.md "Observability & trace export").

    This library is dependency-free; the engine threads a {!sink} through
    [Context] and the exporters in {!Trace_export} turn a finished recorder
    into Chrome [trace_event] JSON or JSONL. *)

type t
(** A telemetry recorder: ring buffer + histograms + span ledger. *)

type sink = t option
(** What the engine threads through [Context]: [None] (the default) is a
    no-op sink; every emission function below is safe on both. *)

val none : sink

val create : ?capacity:int -> unit -> t
(** A fresh recorder.  [capacity] is the maximum number of buffered events
    (default 65536), rounded up to a power of two.  The buffer is
    allocated as it fills, so a short run never pays for all of it. *)

(** {1 Event kinds}

    Each event carries two payload ints [a] and [b] whose meaning depends
    on the kind — see the emission functions below for the encoding. *)

type kind =
  | Install  (** [a] = region id, [b] = node count. *)
  | Evict  (** [a] = region id, [b] = 1 for a whole-cache flush, else 0. *)
  | Invalidate  (** [a] = region id (an SMC write dirtied its span). *)
  | Link_patch  (** [a] = source region id, [b] = target region id. *)
  | Link_sever  (** [a] = source region id, [b] = target region id. *)
  | Dispatch  (** [a] = region id entered from the interpreter. *)
  | Bailout_enter  (** [a] = step until which the cooldown runs. *)
  | Bailout_exit
  | Fault  (** [a] = fault code, see {!fault_label}. *)
  | Blacklist_add  (** [a] = entry address, [b] = cooldown in steps. *)
  | Blacklist_expire  (** [a] = entry address. *)
  | Select  (** [a] = trace length in blocks, [b] = in instructions. *)

val label : kind -> string
(** Short stable tag for exports, e.g. ["install"], ["link-patch"]. *)

val fault_label : int -> string
(** Label for a [Fault] event's code: 0 = ["smc"], 1 = ["translation"],
    2 = ["async-exit"], 3 = ["shock"], 4 = ["crash"] (matching
    [Faults.label]). *)

(** {1 Emission} — allocation-free; no-ops on a [None] sink. *)

val install : sink -> step:int -> id:int -> n_nodes:int -> unit
val evict : sink -> step:int -> id:int -> flush:bool -> unit
val invalidate : sink -> step:int -> id:int -> unit
val link_patch : sink -> step:int -> from_id:int -> target_id:int -> unit
val link_sever : sink -> step:int -> from_id:int -> target_id:int -> unit
val dispatch : sink -> step:int -> id:int -> unit
val bailout_enter : sink -> step:int -> until:int -> unit
val bailout_exit : sink -> step:int -> unit
val fault : sink -> step:int -> code:int -> unit
val blacklist_add : sink -> step:int -> entry:int -> cooldown:int -> unit
val blacklist_expire : sink -> step:int -> entry:int -> unit
val select : sink -> step:int -> n_blocks:int -> n_insts:int -> unit

val finish : t -> step:int -> unit
(** Close every region span still open at end of run (cause
    [End_of_run], retired at [step]).  Call once, after the simulation,
    before reading {!spans} or exporting.  Idempotent. *)

(** {1 Reading the ring} *)

type event = { step : int; kind : kind; a : int; b : int }

val events : t -> event list
(** Surviving events, oldest first.  At most [capacity] of them. *)

val n_emitted : t -> int
(** Events ever emitted (including overwritten ones). *)

val n_dropped : t -> int
(** Events lost to ring overwrite: [max 0 (n_emitted - capacity)]. *)

val capacity : t -> int

(** {1 Spans} *)

type cause = Evicted | Flushed | Invalidated | End_of_run

val cause_label : cause -> string

type span = {
  id : int;  (** Region id. *)
  installed_at : int;
  retired_at : int;
  cause : cause;
  n_nodes : int;
}

val spans : t -> span list
(** Completed spans in install order — after {!finish}, exactly one per
    install ever recorded. *)

val n_installs : t -> int
(** Install events ever recorded (ring overwrite cannot lose them). *)

val span_open : t -> id:int -> bool
(** Whether region [id] currently has an open span (installed, not yet
    retired).  Sanitizer rule: before {!finish}, the open spans are exactly
    the cache's live regions. *)

val iter_open_spans : t -> (id:int -> installed_at:int -> unit) -> unit
(** Iterate the ledger's open spans, increasing region id. *)

val n_open_spans : t -> int
(** Open spans (regions installed and not yet retired). *)

val reconcile_spans : t -> step:int -> live:(int -> bool) -> unit
(** Close (as [End_of_run]) any open span whose region id fails [live].
    Snapshot restore uses this when the ledger outlived the cache section
    it described — the ghost spans close so spans = installs holds and
    the sanitizer's open-spans = live-regions rule is re-established. *)

(** {1 Histograms} *)

module Hist : sig
  (** A log2-bucketed histogram of non-negative ints: bucket 0 counts
      values [<= 0] (sentinel observations), bucket [b >= 1] counts values
      in [[2^(b-1), 2^b - 1]].  Observation is allocation-free. *)

  type h

  val create : unit -> h
  val observe : h -> int -> unit
  val count : h -> int
  val sum : h -> int
  val max_value : h -> int

  val buckets : h -> (int * int * int) list
  (** Non-empty buckets as [(lo, hi, count)], increasing. *)
end

val residency : t -> Hist.h
(** Steps from install to retirement, observed at each genuine retirement
    (regions still live at {!finish} are not observed). *)

val time_to_first_link : t -> Hist.h
(** Steps from a region's install to the first time one of its exit stubs
    was patched, observed once per region. *)

val trace_length : t -> Hist.h
(** Block count of each policy-selected region spec, observed at selection
    (before the install is attempted, so rejected selections count). *)

val blacklist_cooldown : t -> Hist.h
(** Cooldown durations in steps, observed at each blacklist (re-)arming. *)

(** {1 Checkpoint support} *)

val save : t -> (int -> unit) -> unit
(** Serialize the full recorder — ring (written slots verbatim, so
    {!events}, {!n_emitted} and {!n_dropped} survive exactly), histograms,
    span ledger geometry, completed spans, counters — as a flat int
    stream. *)

val load : t -> (unit -> int) -> unit
(** Fill an existing recorder from a {!save} stream.  The recorder must
    have been created at the same capacity as the saved one; raises
    [Failure] on a capacity mismatch or a malformed stream. *)
