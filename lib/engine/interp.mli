(** The program interpreter: replays a workload image block by block.

    This is the substitute for the Pin-reported dynamic basic-block stream
    of the paper's framework (Section 2.3).  Branch outcomes come from the
    image's behaviour specs, instantiated with a private PRNG stream per
    branch site so runs are deterministic per seed.  Calls and returns use a
    real shadow stack, so return addresses — and hence interprocedural
    cycles — behave exactly as in native execution.

    Dispatch is threaded code on dense block ids: {!create} precompiles
    every block's terminator into a closure indexed by the block's id, and
    the interpreter holds the next block's id, not its address.  An op
    fills the step record and returns the id of its successor, captured
    when the op was built for a static transfer and looked up for a return
    or an indirect target, so a step is an array load and one call — no
    terminator [match], no address lookup and no per-step target
    validation for statically-checked transfers (the program constructor
    already proved them).  An op that needs a branch-behaviour state
    quickens: its first execution creates the state and replaces the op
    with one bound to it, for a conditional branch one specialised to the
    state's kind.  {!step_reference} is the plain match-based reading of
    the same terminators, deciding through the generic
    [Behavior.decide], kept as the sanitizer's differential reference;
    the two produce bit-identical steps (same PRNG streams, same step
    sequence).

    The stepping API is built for the simulator's hot loop: {!step_into}
    fills a caller-owned mutable {!step} record and performs no allocation
    once every op has quickened.
    The record holds only immediates (the executed block's dense id, the
    taken flag, the next address); use {!block} — or
    [Program.block_of_id] directly — to recover the [Block.t]. *)

open Regionsel_isa

type t

val create : Regionsel_workload.Image.t -> seed:int64 -> t

type step = {
  mutable block_id : int;  (** Dense id of the block just executed. *)
  mutable taken : bool;  (** Whether its terminator transferred control away. *)
  mutable next : Addr.t;  (** The next block start; [Addr.none] after a halt. *)
}

val make_step : unit -> step
(** A scratch step record to pass to {!step_into}. *)

val step_into : t -> step -> bool
(** Execute one block, writing the outcome into the given record.  [false]
    once the program has halted (explicit [Halt] or return with an empty
    stack), in which case the record is untouched.  Allocation-free. *)

val step_reference : t -> step -> bool
(** {!step_into} by a [match] over the terminator, with every transfer
    target validated per step: slower, but bit-identical.  The sanitizer's
    shadow interpreter steps with it. *)

val block : t -> step -> Block.t
(** The block a filled step record refers to. *)

val save_warm : t -> (int -> unit) -> unit
(** Serialize the warm state — pc (as an address), shadow-stack prefix,
    root PRNG limbs, and every branch-behaviour state created so far — as
    an int stream.  The threaded-op table is not saved; it is compiled
    from the image, and quickens again as it runs. *)

val load_warm : t -> (unit -> int) -> unit
(** Restore a {!save_warm} stream into a freshly created interpreter over
    the same image.  Every PRNG position (root and per-site) ends up
    exactly as saved, so the restored interpreter reproduces the original
    run's remaining step stream bit for bit.  Its ops start unquickened
    and bind the restored states at their first execution.  Raises [Failure] on a
    structurally invalid stream. *)

val stack_depth : t -> int

exception Runaway_stack of int
(** Raised if the shadow stack exceeds a sanity bound (100_000 frames),
    which would indicate a malformed workload. *)
