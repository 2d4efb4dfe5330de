(** Windowed metrics: per-run (and per-tenant) time-series sampled from
    the engine's frozen counters, with Prometheus and JSONL exporters, a
    live status line, and a crash flight recorder.

    A {!recorder} carries a static label set and closes one {!window} per
    {!sample}: the {!Stats.diff} activity since the previous sample plus
    cache/gauge occupancy at the sample point, derived into a fixed series
    list (cached share, steps per region transition, install / reject /
    evict / quota-reject rates, blacklist occupancy, bailout windows), and
    — when the run carries a telemetry sink — cumulative p50/p90/p99
    summaries over the telemetry log2 histograms (residency, trace length,
    time to first link).

    Determinism contract: sampling reads counters and mutates nothing
    simulated (the parity suite pins that a metered run's [Run_metrics]
    are identical to an unmetered one); exports use no wall clock, a fixed
    series order and fixed number formatting, so a fixed seed yields
    byte-identical output across reruns — and, for sampling at
    multi-stream barriers ({!Multi_stream.Engine.create}'s [on_barrier]
    calling {!sample} per tenant), across domain counts. *)

module Stats = Regionsel_engine.Stats
module Context = Regionsel_engine.Context
module Simulator = Regionsel_engine.Simulator

val default_window : int
(** 4096 steps — the multi-stream default batch, and the window the bench
    overhead gate measures. *)

type value = Int of int | Float of float

type window = {
  w_labels : (string * string) list;  (** The recorder's static labels. *)
  w_index : int;  (** 0-based window sequence number within its recorder. *)
  w_start_step : int;  (** Step count at the previous sample (inclusive). *)
  w_end_step : int;  (** Step count at this sample. *)
  w_values : (string * value) list;  (** Series values, fixed order. *)
}

type recorder

val create :
  ?window:int ->
  ?keep:int ->
  ?notify:(window -> unit) ->
  labels:(string * string) list ->
  unit ->
  recorder
(** A fresh recorder.  Its baseline is taken from the first run it sees
    ({!attach}); a recorder that only ever {!sample}s starts from zero
    counters.  [window] (default {!default_window}) is the boundary
    period used by {!advance}; explicit {!sample} calls (barrier
    sampling) ignore it.  [keep] bounds retention
    to the newest [keep] windows — flight-recorder mode; the default
    retains everything.  [notify] fires on every closed window (the
    [--status] reporter).
    @raise Invalid_argument on a non-positive [window] or [keep]. *)

val n_windows : recorder -> int
(** Total windows sampled, including any dropped by [keep]. *)

val windows : recorder -> window list
(** Retained windows, oldest first. *)

val newest : int -> window list -> window list
(** The newest [k] of [ws] (oldest first), in their order. *)

val attach : recorder -> Simulator.t -> unit
(** Take [sim]'s current counters as the baseline, unless the recorder
    has already seen a run (an earlier [attach], {!advance} or
    {!sample}).  A recorder over a restored run so opens its first window
    at the restored step instead of covering all earlier history; for a
    fresh run the baseline is zero either way.  {!advance} attaches
    itself; barrier samplers call this when a tenant joins. *)

val sample : recorder -> step:int -> stats:Stats.t -> ctx:Context.t -> unit
(** Close one window against the live counters.  Matches the signature of
    {!Simulator.sample}'s callback, so barrier sampling is
    [Simulator.sample sim (Metrics.sample r)]. *)

val advance : recorder -> Simulator.t -> upto:int -> unit
(** Step [sim] to [upto] as {!Simulator.advance} does, calling {!sample}
    at each absolute multiple of the recorder's [window] on the way (those
    [<= upto] that the run reaches), so a restored run samples at the
    same steps as the uninterrupted one.  Attaches [sim] first
    ({!attach}).  Solo runs meter this way; multi-stream tenants are
    sampled at batch barriers instead. *)

val finalize : recorder -> Simulator.result -> unit
(** Close the final partial window, if the run ended past the last
    boundary; a run ending exactly on a boundary adds nothing. *)

(** {1 Exporters} *)

val to_jsonl : window list -> string
(** Append-only JSONL time-series: one record per window per series —
    [{"series":…,"labels":{…},"window":…,"start_step":…,"end_step":…,
    "value":…}] — byte-deterministic for a fixed seed. *)

val write_jsonl : path:string -> window list -> unit

val to_prometheus : window list -> string
(** Scrape-ready text exposition: the newest window of each label set
    (first-seen order), one [# HELP]/[# TYPE] block per series, plus a
    [regionsel_windows_total] counter per label set.  Never emits
    duplicate series (one window per label set, one value per name). *)

val write_prometheus : path:string -> window list -> unit

val status_line : window -> string
(** One-line human summary of a window, for the [--status] stderr
    reporter (no trailing newline). *)

(** {1 Flight recorder} *)

val default_flight_keep : int
(** 16 windows — the default crash-history depth. *)

val flight_dump :
  path:string -> cli:string -> ?detail:string -> window list -> int
(** Dump a crash flight record: a JSONL header line carrying the
    reproducer CLI line and failure detail, followed by the window
    records.  Returns the number of windows written. *)
