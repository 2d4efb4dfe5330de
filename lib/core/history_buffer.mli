(** LEI's branch history buffer (Figures 5 and 6 of the paper).

    A bounded circular buffer of the most recently interpreted taken
    branches, with an index from target block to that target's most recent
    occurrence: the paper's hash table, here an array indexed by
    {!Program.block_id} and sized to the program once.  If an inserted
    branch's target is already in the buffer, a cycle has just executed
    and the buffer slice between the two occurrences spells out its
    path.

    Entries carry a [follows_exit] flag: the entry recorded immediately
    after execution left the code cache, which is LEI's analogue of NET's
    trace-exit profiling points (line 9 of Figure 5 accepts a cycle whose
    earlier occurrence "follows an exit from the code cache").

    Each entry has a monotonically increasing sequence number; sequence
    numbers identify occurrences stably across wrap-around and truncation.

    Storage is parallel unboxed arrays, so the per-branch operations —
    {!counted_cycle}, {!insert}, {!length} — and trace formation's cursor
    ({!next_live} and the [_at] accessors) allocate nothing; the
    {!entry}-returning accessors materialize records on demand, for
    inspection and tests. *)

open Regionsel_isa

type entry = { src : Addr.t; tgt : Addr.t; follows_exit : bool; seq : int }

type t

val create : Program.t -> capacity:int -> t
(** A buffer whose targets are the program's block starts.  Requires
    [capacity >= 1]. *)

val length : t -> int
(** Entries currently held (at most [capacity]).  O(1): a live counter is
    maintained across insertion, eviction and truncation. *)

val find : t -> Addr.t -> entry option
(** The most recent live occurrence of the address as a branch target —
    the paper's [HASH-LOOKUP(Buf.hash, tgt)].  [None] when the index's
    binding for the address is stale (its slot was overwritten), even if
    an older occurrence is still live. *)

val insert : t -> src:Addr.t -> tgt:Addr.t -> follows_exit:bool -> int
(** Append a taken branch, evicting the oldest entry when full, and update
    the index to this newest occurrence.  Returns the new entry's sequence
    number.
    @raise Invalid_argument if [tgt] is not a block start. *)

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
    previous occurrence's sequence number.  The {!next_live} cursor and
    the [_at] accessors, unfolded into records. *)

val next_live : t -> after:int -> int
(** The smallest live sequence number strictly greater than [after], or
    [0] if there is none: a cursor over {!entries_after}'s entries that
    allocates nothing. *)

val src_at : t -> int -> Addr.t
val tgt_at : t -> int -> Addr.t

val follows_exit_at : t -> int -> bool
(** The fields of the live entry with the given sequence number, as
    returned by {!next_live}.  The sequence number must be live; for any
    other non-negative one they return whatever its slot holds. *)

val truncate_after : t -> seq:int -> unit
(** Drop all entries with sequence number strictly greater than [seq] —
    line 13 of Figure 5 ("remove all elements of Buf after old"). *)

val save : t -> (int -> unit) -> unit
(** Checkpoint support: serialize the slot arrays verbatim (stale slots
    included) and the full index (stale bindings included — they are
    load-bearing: a stale binding shadows older live occurrences, and
    rebuilding the index from live entries would resurrect them), as
    (target address, sequence) pairs in ascending address order. *)

val load : t -> (unit -> int) -> unit
(** Restore a {!save} stream into a buffer created with the same
    capacity over the same program.  Raises [Failure] on capacity
    mismatch or a malformed stream (including a target that is not a
    block start). *)
