(** The control-flow graph built from observed traces (Section 4.2.2), and
    the region-selection passes run over it (Figures 13 and 15).

    The CFG represents only control transfers that occurred in an observed
    trace — any other target exits the region, so nothing else is needed.
    Blocks are annotated with the number of observed traces containing
    them; blocks reaching the [T_min] occurrence threshold are marked, the
    MARK-REJOINING-PATHS dataflow extends the marking to every block from
    which a marked block is reachable, and unmarked blocks are pruned.
    Finally, any remaining exit whose target is a block of the region is
    replaced by an internal edge. *)

open Regionsel_isa
module Region = Regionsel_engine.Region

type t
(** A CFG over one program's blocks.  Its per-block tables are indexed by
    block id and sized to the program at {!create}; {!reset} reuses them
    for the next entry, clearing only the blocks the last CFG held. *)

val create : Program.t -> entry:Addr.t -> t

val reset : t -> entry:Addr.t -> unit
(** Empty the CFG and re-root it at [entry]: afterwards it behaves like
    a fresh [create program ~entry]. *)

val add_path : t -> Region.path -> unit
(** Merge one observed trace.  Every path must begin at the CFG's entry,
    and every block must be a block of the program.  Each block's
    occurrence count rises at most once per path. *)

val n_paths : t -> int
val n_blocks : t -> int

val occurrences : t -> Addr.t -> int
(** Observed traces containing the block (0 if unknown). *)

val mark_frequent : t -> t_min:int -> unit
(** Mark all blocks occurring in at least [t_min] observed traces (line 13
    of Figure 13). *)

val is_marked : t -> Addr.t -> bool

val mark_rejoining_paths : t -> int
(** The Figure 15 dataflow: repeatedly, in a post-order traversal, mark any
    block with a marked successor, until a pass marks nothing.  Afterwards
    a block is marked iff a marked block is reachable from it.  Returns the
    number of passes that marked at least one block (almost always 1, per
    Section 4.2.3). *)

val to_spec : ?layout:[ `Hot_first | `Address_order ] -> t -> Region.spec
(** Prune unmarked blocks and build the installable region: edges are the
    observed transfers between surviving blocks, plus every direct static
    successor relation between surviving blocks (line 16 of Figure 13:
    exits targeting a block of the region become edges).  [layout]
    (default [`Hot_first]) chooses the cache placement: blocks ordered by
    observation count — the profile-guided layout Section 4.4 argues
    larger regions enable — or plain address order for the ablation.
    @raise Invalid_argument if the entry is unmarked (it cannot be: it
    occurs in every observed trace). *)
