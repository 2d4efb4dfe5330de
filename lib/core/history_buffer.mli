(** LEI's branch history buffer (Figures 5 and 6 of the paper).

    A bounded circular buffer of the most recently interpreted taken
    branches, with a hash index from target address to that target's most
    recent occurrence.  If an inserted branch's target is already in the
    buffer, a cycle has just executed and the buffer slice between the two
    occurrences spells out its path.

    Entries carry a [follows_exit] flag: the entry recorded immediately
    after execution left the code cache, which is LEI's analogue of NET's
    trace-exit profiling points (line 9 of Figure 5 accepts a cycle whose
    earlier occurrence "follows an exit from the code cache").

    Each entry has a monotonically increasing sequence number; sequence
    numbers identify occurrences stably across wrap-around and truncation.

    Storage is parallel unboxed arrays, so the per-branch operations —
    {!counted_cycle}, {!insert}, {!length} — allocate nothing; the {!entry}-returning accessors materialize records on demand
    and are meant for the cold (trace-formation and testing) paths. *)

open Regionsel_isa

type entry = { src : Addr.t; tgt : Addr.t; follows_exit : bool; seq : int }

type t

val create : capacity:int -> t
(** Requires [capacity >= 1]. *)

val length : t -> int
(** Entries currently held (at most [capacity]).  O(1): a live counter is
    maintained across insertion, eviction and truncation. *)

val find : t -> Addr.t -> entry option
(** The most recent live occurrence of the address as a branch target —
    the paper's [HASH-LOOKUP(Buf.hash, tgt)]. *)

val insert : t -> src:Addr.t -> tgt:Addr.t -> follows_exit:bool -> int
(** Append a taken branch, evicting the oldest entry when full, and update
    the hash index to this newest occurrence.  Returns the new entry's
    sequence number. *)

val counted_cycle : t -> src:Addr.t -> tgt:Addr.t -> follows_exit:bool -> int
(** Figure 5's cycle test, the one rule LEI and combined LEI share:
    {!insert} the taken branch [src -> tgt], and if it closes a cycle LEI
    counts — [tgt] already occurred in the buffer, and the branch is
    backward or that earlier occurrence followed a code-cache exit
    (line 9) — return the earlier occurrence's sequence number; otherwise
    [0]. *)

val entries_after : t -> seq:int -> entry list
(** Live entries with sequence number strictly greater than [seq], oldest
    first: the just-completed cycle's branches, when called with the
    previous occurrence's sequence number. *)

val truncate_after : t -> seq:int -> unit
(** Drop all entries with sequence number strictly greater than [seq] —
    line 13 of Figure 5 ("remove all elements of Buf after old"). *)

val save : t -> (int -> unit) -> unit
(** Checkpoint support: serialize the slot arrays verbatim (stale slots
    included) and the full hash index (stale bindings included — they are
    load-bearing: a stale binding shadows older live occurrences, and
    rebuilding the index from live entries would resurrect them). *)

val load : t -> (unit -> int) -> unit
(** Restore a {!save} stream into a buffer created with the same
    capacity.  Raises [Failure] on capacity mismatch or a malformed
    stream. *)
