(** FORM-TRACE: reconstructing a cyclic trace from the history buffer
    (the paper's Figure 6).

    Given the buffer slice between two occurrences of a target, the full
    executed path is rebuilt by appending, for each taken branch, the
    fall-through blocks from the previous branch's target up to the
    branch's source.  Formation stops when a block begins an existing
    cached region (avoiding duplication of an inner cycle's first
    iteration, even on a fall-through path) or when a branch targets a
    block already in the trace (the cycle is complete). *)

open Regionsel_isa
module Region = Regionsel_engine.Region
module Context = Regionsel_engine.Context

type t
(** A former's scratch state, sized to the program once: one per policy
    instance, reused by every formation. *)

val create : Program.t -> t

val form :
  t -> ctx:Context.t -> buf:History_buffer.t -> start:Addr.t -> after_seq:int ->
  Region.path option
(** [form t ~ctx ~buf ~start ~after_seq] rebuilds the cycle that begins at
    [start], whose branches are the buffer entries after [after_seq] (the
    previous occurrence of [start]).  Returns [None] when no blocks can be
    selected (e.g. [start] already begins a cached region). *)
