(** Last-Executed Iteration (LEI) trace selection — the paper's first
    contribution (Section 3, Figures 5 and 6).

    Every interpreted taken branch whose target is not cached is pushed
    into a history buffer.  When the target already occurs in the buffer, a
    cycle has just executed; if the closing branch is backward, or the
    earlier occurrence followed a code-cache exit, the target's counter is
    incremented.  At [Params.lei_threshold] the cyclic path recorded in the
    buffer is selected as a trace.  Unlike NET, formation crosses backward
    calls and returns, so interprocedural cycles are spanned, and it stops
    at blocks that begin existing regions, so nested cycles are not
    duplicated. *)

open Regionsel_isa
module Policy = Regionsel_engine.Policy
module Context = Regionsel_engine.Context

include Policy.S

val on_event :
  Context.t ->
  History_buffer.t ->
  on_cycle:('a -> tgt:Addr.t -> old_seq:int -> count:int -> Policy.action) ->
  'a ->
  Policy.event ->
  Policy.action
(** The event handling LEI and combined LEI share, which differ only in
    [on_cycle].  Every interpreted taken branch to an uncached target and
    every code-cache exit runs {!History_buffer.counted_cycle}; a counted
    cycle increments [tgt]'s counter and passes the new [count] and the
    earlier occurrence's [old_seq] to [on_cycle state].
    [Region_invalidated] releases the entry's counter. *)
