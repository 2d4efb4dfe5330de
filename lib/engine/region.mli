(** Regions: the unit of code selected, cached and executed by the system.

    A region is a single-entry set of program blocks plus the internal
    control edges along which execution stays inside the region.  A
    classical trace is the special case where the edges form a single path,
    possibly closed by a back edge to the entry; a combined region
    (Section 4) may contain splits and joins.

    Installed regions are {e compiled}: the blocks are numbered 0..n-1 in
    cache-layout order (the entry is node 0) and every structure the
    simulator touches per cached step — successor sets, cache offsets, the
    program-wide block-id translation and the inter-region link slots — is
    a flat array indexed by small ints.  The address-keyed queries below
    remain for cold callers (metrics, emitter, tests).

    A region also carries its run-time statistics (executions, completed
    cycles, exits) and its static cost model (copied instructions, exit
    stubs), which together feed every metric in the paper's evaluation. *)

open Regionsel_isa

type kind =
  | Trace
  | Combined
  | Method  (** A whole-method region (JIT-style), entered at the function
                entry or re-entered at a return continuation. *)

type path = {
  blocks : Block.t list;  (** Executed blocks, in order; possibly with repeats. *)
  final_next : Addr.t option;
      (** Where control went after the last block ([None] if the program
          halted there or the continuation is unknown). *)
}
(** A recorded single path of execution, as produced by the NET recorder or
    LEI's FORM-TRACE. *)

val path_insts : path -> int
(** Instructions along the path, counting repeats: the path's contribution
    to code expansion. *)

type spec = {
  entry : Addr.t;
  nodes : Block.t list;  (** Distinct blocks; must include [entry]. *)
  edges : (Addr.t * Addr.t) list;
      (** Internal edges between node start addresses. *)
  copied_insts : int;
      (** Instructions copied into the cache for this region (counts
          duplicated blocks, unlike [nodes]). *)
  kind : kind;
  aux_entries : Addr.t list;
      (** Additional dispatchable entry points (must be nodes).  Traces and
          combined regions have none; method regions list each call's
          return continuation, where the compiled method is re-entered. *)
  layout_hint : Addr.t list;
      (** The order in which to place the blocks in the code cache — for a
          trace, the path order, which is the point of traces ("placing
          frequently executed code together in consecutive memory
          locations", Section 1); for a combined region, hottest blocks
          first.  Nodes not listed are appended in address order; the entry
          always comes first. *)
}
(** What a policy submits for installation. *)

val spec_of_path : kind:kind -> path -> spec
(** Build a single-path region: consecutive-block edges, plus a closing
    edge when [final_next] lands on a block of the path (a spanned cycle
    when that block is the entry). *)

type t = private {
  id : int;
  entry : Addr.t;
  kind : kind;
  n_nodes : int;
  node_blocks : Block.t array;
      (** Node id -> block.  Node ids are cache-layout order: the entry is
          node 0, then the layout hint's order, then address order. *)
  node_offsets : int array;
      (** Node id -> byte offset of the block's copy within the region. *)
  node_is_entry : bool array;
      (** Node id -> whether the node is dispatchable (entry or aux entry). *)
  succ_bits : int array;
      (** Internal-edge adjacency bitset: bit [dst] of row
          [src * succ_stride] (32-bit words), tested by {!has_edge_nodes}. *)
  succ_stride : int;  (** Words per [succ_bits] row. *)
  hot_succ_addr : int array;
      (** Node id -> start address of the node's first internal successor
          ([-1] if it has none): the compiled fall-through, so the common
          stay-in-region step is a single compare. *)
  hot_succ_node : int array;  (** Node id of that successor. *)
  node_by_addr : Flat_tbl.t;  (** Block start address -> node id. *)
  node_base : int;  (** Smallest [Program.block_id] among the nodes. *)
  node_of_block : int array;
      (** [Program.block_id - node_base] -> node id ([-1] for blocks
          outside the region), covering the nodes' ids; [[||]] when built
          without [~program].  Read it through {!node_of_block_id}. *)
  n_link_slots : int;  (** See {!n_link_slots}. *)
  mutable link_base : int;
  mutable link_slots : t option array;
      (** [slot - link_base] -> region this region's exit to block id
          [slot] is linked to (the patched exit stub), covering the linked
          slots; grown by {!set_link}.  Read it through {!link_target}.
          Invariant, maintained by [Code_cache]: a link never outlives its
          target region, and always agrees with the dispatch array. *)
  copied_insts : int;
  n_stubs : int;
  spans_cycle : bool;  (** Region contains an edge back to its entry. *)
  selected_at : int;  (** Selection sequence number (0-based). *)
  mutable entries : int;  (** Times control entered at the region entry. *)
  mutable cycle_iters : int;  (** Completed internal cycles back to entry. *)
  mutable exits : int;  (** Times control left the region. *)
  mutable insts_executed : int;
  exit_log : Flat_tbl.t;
      (** [(exit block start lsl 32) lor target] -> count.  Packed so the
          per-transition update is one inline probe; unpack keys with
          {!exit_src} / {!exit_tgt}. *)
  aux_entries : Addr.Set.t;
  mutable cache_base : int;
      (** Byte address of the region in the code cache; -1 until
          installed. *)
}

val of_spec : id:int -> selected_at:int -> ?program:Program.t -> spec -> t
(** Freeze a spec into an installed region, compiling the intra-region
    automaton and computing its exit-stub count: one stub per static
    successor direction (taken and fall-through of conditionals, targets of
    jumps and calls, the continuation of fall-through blocks) not covered
    by an internal edge, and always one stub per indirect branch or return
    (the mispredict path).  Pass [program] to enable the dense
    [node_of_block] translation and the [link_slots] the simulator steps
    cached code through.
    @raise Invalid_argument if the spec is malformed (entry not a node, or
    an edge endpoint that is not a node). *)

val dummy : t
(** A zero-node sentinel for "no region", compared by physical equality.
    The simulator's current-region cell holds it while interpreting, so
    mode changes are plain stores instead of option allocations.  Never
    execute it — its arrays are empty. *)

val node_id : t -> Addr.t -> int
(** The node id of the block starting at the address, or [-1]. *)

val mem_block : t -> Addr.t -> bool
val has_edge : t -> src:Addr.t -> dst:Addr.t -> bool

val has_edge_nodes : t -> src:int -> dst:int -> bool
(** {!has_edge} over node ids: two array reads, no hash probe.  Both ids
    must be valid node ids of this region. *)

val nodes : t -> Block.t list
(** Distinct blocks, in increasing address order. *)

val layout_blocks : t -> Block.t list
(** Distinct blocks in cache-layout (node-id) order. *)

val record_entry : t -> unit
val record_cycle : t -> unit
val record_exec : t -> int -> unit

val record_exit : t -> from:Addr.t -> tgt:Addr.t -> unit
(** Log a dynamic exit for the exit-domination analysis. *)

val exit_src : int -> Addr.t
val exit_tgt : int -> Addr.t
(** Unpack an [exit_log] key into its exit-block start / target halves. *)

val exit_targets : t -> Addr.Set.t
(** All targets dynamically exited to. *)

val exited_to : t -> tgt:Addr.t -> Addr.Set.t
(** The blocks of this region from which an exit to [tgt] was taken. *)

val inst_bytes : int
(** Bytes per instruction in the cache-size cost model (4: the upper end
    of the paper's "between three and four bytes", Section 4.3.4). *)

val stub_bytes : int
(** Bytes per exit stub (10, per Section 4.3.4). *)

val cache_bytes : t -> int
(** The region's footprint in the code cache under the cost model. *)

val set_cache_base : t -> int -> unit
(** Called by the code cache when the region is placed. *)

val block_offset : t -> Addr.t -> int
(** Byte offset of the block's copy within the region ([-1] for
    non-nodes), independent of installation. *)

val block_cache_addr : t -> Addr.t -> int option
(** The byte address in the code cache at which the copy of the given
    block starts, once the region is installed ([None] for non-nodes or
    before installation). *)

val node_of_block_id : t -> int -> int
(** The node id of the block with the given [Program.block_id], [-1] for
    blocks outside the region and for any id without [~program]. *)

val n_link_slots : t -> int
(** The number of link slots, one per program block (0 when built
    without [~program]). *)

val link_target : t -> int -> t option
(** The region this region's exit to the given block id is linked to
    ([None] for unlinked slots and out-of-range ids). *)

val set_link : t -> slot:int -> t option -> unit
(** Patch (or unpatch) one exit link.  Callers other than [Code_cache]
    must not use this: the cache owns the no-stale-links invariant.
    @raise Invalid_argument if the slot is not below {!n_link_slots}. *)

val clear_links : t -> int
(** Unpatch every outgoing link, returning how many were live (used when
    the region itself is retired). *)

val save : t -> (int -> unit) -> unit
(** Checkpoint support: serialize the region — spec, identity, run-time
    counters, exit log, cache placement — as a flat int stream.  Link
    slots are not saved; the code cache re-registers links on restore. *)

val load : program:Program.t -> (unit -> int) -> t
(** Rebuild a saved region through {!of_spec} over the same program, so
    the compiled automaton (node numbering, offsets, adjacency, stub
    count) is recomputed and revalidated rather than trusted from the
    stream.  Raises [Failure] or [Invalid_argument] on a corrupt
    stream. *)

val pp : Format.formatter -> t -> unit
