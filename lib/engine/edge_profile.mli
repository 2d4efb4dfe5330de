(** Executed control-flow edge profile of a whole run.

    Records every dynamic transfer between blocks (interpreted or cached).
    Exit domination (Section 4.1) needs it to decide whether a region
    entrance has any executed predecessor other than its dominator's exit
    block.

    A profile is created over the run's [Program] and counts each block's
    fall-through and direct taken successor in a dense per-[(block id,
    taken)] array ({!record_step}): one compare and one increment, no hash.
    Returns and indirect transfers, and every edge passed to {!record},
    are batched in a small fixed ring of packed
    [(edge_key, count)] slots, flushed into the backing flat table on slot
    conflict and on explicit {!flush} (the simulator drains at watchdog
    windows and at the end of the run).  Every read drains the ring and
    folds the dense counts in first, so every observer sees counts
    identical to an unbatched per-step profile. *)

open Regionsel_isa

type t

val create : program:Program.t -> unit -> t
(** An empty profile whose dense tier has one slot per [(block id, taken)]
    of [program]. *)

val record : t -> src:Addr.t -> dst:Addr.t -> unit
(** Count one executed transfer through the ring.  One multiply-hash and
    one or two array stores; no allocation ever. *)

val record_step : t -> block_id:int -> taken:bool -> src:Addr.t -> dst:Addr.t -> unit
(** Count the transfer of one executed step: block [block_id] (starting at
    [src]) went in direction [taken] to [dst].  When [dst] is the
    successor the block's terminator names for that direction the count
    goes to the dense tier; otherwise this is {!record}.  [block_id] must be
    an id of the profile's program: it indexes the dense arrays unchecked. *)

val flush : t -> unit
(** Drain the ring into the backing table.  A no-op when the ring is
    empty; otherwise counts one flush.  Dense counts are not touched. *)

val flushes : t -> int
(** Number of ring drains so far (conflict spills are not counted).  The
    ring holds only returns, indirect transfers and {!record}'s edges. *)

val count : t -> src:Addr.t -> dst:Addr.t -> int

val preds : t -> Addr.t -> Addr.Set.t
(** Blocks from which an executed edge reaches the given block start.
    [preds t] reads the profile once: the function it returns answers from
    the edges recorded up to that point. *)

val n_edges : t -> int
val fold : (src:Addr.t -> dst:Addr.t -> int -> 'a -> 'a) -> t -> 'a -> 'a

val save : t -> (int -> unit) -> unit
(** Checkpoint support: serialize the accumulation ring verbatim (it is
    not drained, so the flush count — which bench reports — is unperturbed
    by a save), then the backing table, after folding the dense counts
    into it (reads see both tiers' sum either way). *)

val load : t -> (unit -> int) -> unit
(** Replace the profile's contents from a {!save} stream.  Raises
    [Failure] on a structurally invalid stream, and then leaves the
    profile as it was. *)
