(** Storage for compactly-encoded observed traces, keyed by entry
    (Section 4.2.1): an array of trace lists indexed by the entry's block
    id, sized to the program once.

    Each stored trace is independent — no cross-trace analysis happens
    until the entry's region is selected — and the store keeps the shared
    memory gauge up to date so the Figure 18 high-water metric reflects the
    bytes held at every instant. *)

open Regionsel_isa
module Gauges = Regionsel_engine.Gauges

type t

val create : Program.t -> Gauges.t -> t
(** An empty store for traces of the program. *)

val record : t -> Compact_trace.t -> unit
(** File one observed trace under its entry address.
    @raise Invalid_argument if the entry is not a block start. *)

val count : t -> Addr.t -> int
(** Observed traces currently stored for the entry. *)

val take : t -> Addr.t -> Compact_trace.t list
(** Remove and return the entry's traces in observation order, returning
    their bytes to the gauge. *)

val total_bytes : t -> int
val n_entries : t -> int

val save : t -> (int -> unit) -> unit
(** Checkpoint support: every stored trace, keyed by entry, entries in
    ascending address order. *)

val load : t -> (unit -> int) -> unit
(** Replace the store's contents from a {!save} stream.  Does not touch
    the shared gauges (they have their own snapshot section).  Raises
    [Failure] on a malformed stream. *)
