(** Regions: the unit of code selected, cached and executed by the system.

    A region is a single-entry set of program blocks plus the internal
    control edges along which execution stays inside the region.  A
    classical trace is the special case where the edges form a single path,
    possibly closed by a back edge to the entry; a combined region
    (Section 4) may contain splits and joins.

    Installed regions are {e compiled}: the blocks are numbered 0..n-1 in
    cache-layout order (the entry is node 0) and every structure the
    simulator touches per cached step — successor sets, cache offsets, the
    block-id translation and the inter-region link slots — is a flat array
    indexed by small ints.  The block-id translation is the region's one
    index from blocks to nodes: the address-keyed queries below go through
    [Program.block_id] to it, for cold callers (metrics, emitter, tests).

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

val compare_edge : Addr.t * Addr.t -> Addr.t * Addr.t -> int
(** The order [spec.edges] are kept in: by source, then by target (the
    order [compare] gives int pairs). *)

val spec_of_path : kind:kind -> path -> spec
(** Build a single-path region: consecutive-block edges, plus a closing
    edge when [final_next] lands on a block of the path (a spanned cycle
    when that block is the entry). *)

type t = private {
  id : int;
  entry : Addr.t;
  kind : kind;
  program : Program.t;  (** The program the region's blocks belong to. *)
  n_nodes : int;
  node_blocks : Block.t array;
      (** Node id -> block.  Node ids are cache-layout order: the entry is
          node 0, then the layout hint's order, then address order. *)
  node_offsets : int array;
      (** Node id -> byte offset of the block's copy within the region. *)
  node_is_entry : bool array;
      (** Node id -> whether the node is dispatchable: node 0 (the entry)
          and the aux entries, which {!iter_aux_entries} walks. *)
  succ_bits : int array;
      (** Internal-edge adjacency bitset: bit [dst] of row
          [src * succ_stride] (32-bit words), tested by {!has_edge_nodes}. *)
  succ_stride : int;  (** Words per [succ_bits] row. *)
  hot_succ_addr : int array;
      (** Node id -> start address of the node's first internal successor
          ([-1] if it has none): the compiled fall-through, so the common
          stay-in-region step is a single compare.  The one deliberate
          duplicate of [node_of_block]: the cached loop compares the next
          address here before translating it. *)
  hot_succ_node : int array;  (** Node id of that successor. *)
  node_base : int;  (** Smallest [Program.block_id] among the nodes. *)
  node_of_block : int array;
      (** [Program.block_id - node_base] -> node id ([-1] for blocks
          outside the region), covering the nodes' ids: the only index
          from blocks to nodes.  Read it through {!node_of_block_id}. *)
  mutable link_base : int;
  mutable link_slots : t option array;
      (** [slot - link_base] -> region this region's exit to block id
          [slot] is linked to (the patched exit stub), covering the linked
          slots; grown by {!set_link}.  Read it through {!link_target}.
          Invariant, maintained by [Code_cache]: a link never outlives its
          target region, and always agrees with the dispatch array. *)
  copied_insts : int;
      (** Instructions copied into the cache for this region: the sizes of
          the distinct nodes, each counted once. *)
  n_stubs : int;
  spans_cycle : bool;  (** Region contains an edge back to its entry. *)
  selected_at : int;  (** Selection sequence number (0-based). *)
  mutable entries : int;  (** Times control entered at the region entry. *)
  mutable cycle_iters : int;  (** Completed internal cycles back to entry. *)
  mutable exits : int;  (** Times control left the region. *)
  mutable insts_executed : int;
  exit_log : Flat_tbl.t;
      (** [(exit block start lsl 32) lor target] -> count.  Counts
          {!record_exit_at} keeps in [exit_pending] are folded in only by
          the readers below; read it through {!fold_exits}.  Unpack keys with {!exit_src} /
          {!exit_tgt}. *)
  exit_succ : int array;
      (** Slot [node * 2 + taken] -> the successor the node's terminator
          names in that direction, or [-1] when the target is dynamic
          (returns, indirect transfers) or the direction does not exist. *)
  exit_pending : int array;
      (** Slot -> exits along it not yet folded into [exit_log]; [-1]
          while the slot's key is absent from [exit_log]. *)
  mutable cache_base : int;
      (** Byte address of the region in the code cache; -1 until
          installed. *)
  mutable node_lines : int array;
      (** Icache line span of each node's copy: slot [node * 2] holds the
          first line, [node * 2 + 1] the last.  Set by {!set_cache_base};
          [[||]] until the region is placed. *)
}

val of_spec : id:int -> selected_at:int -> program:Program.t -> spec -> t
(** Freeze a spec into an installed region of [program], compiling the
    intra-region automaton (including the dense [node_of_block]
    translation and the [link_slots] the simulator steps cached code
    through), summing [copied_insts] over the distinct nodes, and
    computing its exit-stub count from the compiled successor bitset: one
    stub per static successor direction
    (taken and fall-through of conditionals, targets of jumps and calls,
    the continuation of fall-through blocks) not covered by an internal
    edge, and always one stub per indirect branch or return (the
    mispredict path).
    @raise Invalid_argument if the spec is malformed (entry not a node, an
    edge endpoint or aux entry that is not a node, or a node that is not a
    block start of [program]; checked in that order).  An aux entry that
    is the entry itself is dropped: node 0 is dispatchable anyway. *)

val dummy : t
(** A zero-node sentinel for "no region", compared by physical equality.
    The simulator's current-region cell holds it while interpreting, so
    mode changes are plain stores instead of option allocations.  Never
    execute it — its arrays are empty. *)

val node_id : t -> Addr.t -> int
(** The node id of the block starting at the address, or [-1]:
    {!node_of_block_id} of its [Program.block_id]. *)

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

val record_run : t -> insts:int -> cycles:int -> unit
(** Add a stretch of cached execution to the run-time counters: [insts]
    instructions executed and [cycles] completed cycles back to the
    entry.  The simulator's cached-mode loop counts both in locals and
    stores them through this when it stops or switches region. *)

val record_exit : t -> from:Addr.t -> tgt:Addr.t -> unit
(** Log a dynamic exit for the exit-domination analysis: one probe of
    [exit_log]. *)

val record_exit_at : t -> node:int -> taken:bool -> from:Addr.t -> tgt:Addr.t -> unit
(** {!record_exit} for an exit from node [node] (whose block starts at
    [from]) in direction [taken].  When [tgt] is the slot's static
    successor the exit is counted in [exit_pending], touching [exit_log]
    only on the slot's first exit; other targets take {!record_exit}.  The
    log's keys and their insertion order are those of per-exit
    {!record_exit} calls. *)

val fold_exits : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over [exit_log]'s [(key, count)] bindings, after folding the
    pending slot counts in. *)

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

val set_cache_base : t -> line_bytes:int -> int -> unit
(** Called by the code cache when the region is placed: records the base
    address and computes [node_lines] for icache lines of [line_bytes].
    @raise Invalid_argument unless [line_bytes > 0]. *)

val block_offset : t -> Addr.t -> int
(** Byte offset of the block's copy within the region ([-1] for
    non-nodes), independent of installation. *)

val block_cache_addr : t -> Addr.t -> int option
(** The byte address in the code cache at which the copy of the given
    block starts, once the region is installed ([None] for non-nodes or
    before installation). *)

val node_of_block_id : t -> int -> int
(** The node id of the block with the given [Program.block_id], [-1] for
    blocks outside the region. *)

val iter_aux_entries : (int -> unit) -> t -> unit
(** Apply the function to the [Program.block_id] of each aux entry, in
    ascending order (which is ascending address).  The aux entries are
    the dispatchable nodes other than the entry. *)

val n_link_slots : t -> int
(** The number of link slots, one per program block. *)

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

val load : program:Program.t -> line_bytes:int -> (unit -> int) -> t
(** Rebuild a saved region through {!of_spec} over the same program, so
    the compiled automaton (node numbering, offsets, adjacency, stub
    count, copied instructions) is recomputed and revalidated rather than
    trusted from the stream, and the node line spans are computed for
    [line_bytes].  The stored [copied_insts] must equal the nodes' sum.
    Raises [Failure] or [Invalid_argument] on a corrupt stream. *)

val pp : Format.formatter -> t -> unit
