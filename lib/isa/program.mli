(** Whole-program representation: a validated set of basic blocks.

    A program is an immutable table of non-overlapping basic blocks plus an
    entry address.  Validation guarantees that every control transfer a run
    can take lands on a block start, which lets the interpreter, the region
    selectors and the trace decoder all walk the program without partiality:
    the compact-trace decoder of Figure 14 in particular relies on being able
    to re-walk any executed path from its start address alone. *)

type t

val of_blocks : entry:Addr.t -> Block.t list -> (t, string) result
(** [of_blocks ~entry blocks] validates and indexes [blocks].  It fails if
    blocks overlap, if [entry] is not a block start, if any direct branch
    target is not a block start, or if a block that can fall through (or be
    returned to, for calls) is not followed immediately by another block. *)

val of_blocks_exn : entry:Addr.t -> Block.t list -> t
(** Like {!of_blocks} but raises [Invalid_argument] on malformed input. *)

val entry : t -> Addr.t

val block_at_exn : t -> Addr.t -> Block.t
(** @raise Not_found if no block starts there. *)

val is_block_start : t -> Addr.t -> bool
val n_blocks : t -> int

val block_id : t -> Addr.t -> int
(** The dense id of the block starting at the given address, or [-1] if no
    block starts there.  Ids are assigned at validation time, are contiguous
    in [0 .. n_blocks - 1], and increase with start address — an O(1) array
    read, the hot-path replacement for hashtable lookups.  Downstream
    modules may key per-block state on ids. *)

val block_of_id : t -> int -> Block.t
(** The block with the given dense id.  Ids come from {!block_id}; passing
    anything outside [0 .. n_blocks - 1] is a programming error. *)

val n_insts : t -> int
(** Total static instruction count, the denominator used when reporting code
    expansion as a fraction of program size. *)

val blocks : t -> Block.t array
(** All blocks in increasing address order. *)

val iter_blocks : (Block.t -> unit) -> t -> unit
