open Regionsel_isa
module Policy = Regionsel_engine.Policy
module Context = Regionsel_engine.Context
module Region = Regionsel_engine.Region
module Code_cache = Regionsel_engine.Code_cache
module Counters = Regionsel_engine.Counters
module Params = Regionsel_engine.Params

type t = { ctx : Context.t; buf : History_buffer.t; former : Lei_former.t }

let name = "lei"

let create (ctx : Context.t) =
  let program = ctx.Context.program in
  {
    ctx;
    buf = History_buffer.create program ~capacity:ctx.Context.params.Params.lei_buffer_size;
    former = Lei_former.create program;
  }

(* Checkpoint support: the history buffer is the policy's only state (the
   counter pool lives in the shared context). *)
let save t emit = History_buffer.save t.buf emit

let load ctx read =
  let t = create ctx in
  History_buffer.load t.buf read;
  t

(* INTERPRETED-BRANCH-TAKEN, Figure 5, for a target that is not cached.  A
   code-cache exit reaches the dispatcher exactly like an interpreted taken
   branch, so it runs the same algorithm; its buffer entry carries the
   [follows_exit] flag that line 9 tests on the {e previous} occurrence. *)
let taken_branch (ctx : Context.t) buf ~on_cycle state ~src ~tgt ~is_exit =
  let old_seq = History_buffer.counted_cycle buf ~src ~tgt ~follows_exit:is_exit in
  if old_seq = 0 then Policy.No_action
  else on_cycle state ~tgt ~old_seq ~count:(Counters.incr ctx.Context.counters tgt)

let on_event (ctx : Context.t) buf ~on_cycle state = function
  | Policy.Interp_block ib ->
    let tgt = ib.Policy.next in
    if ib.Policy.taken && not (Addr.is_none tgt) then
      if Code_cache.mem ctx.Context.cache tgt then Policy.No_action
      else
        taken_branch ctx buf ~on_cycle state ~src:(Block.last ib.Policy.block) ~tgt
          ~is_exit:false
    else Policy.No_action
  | Policy.Cache_exited { src; tgt; _ } ->
    taken_branch ctx buf ~on_cycle state ~src ~tgt ~is_exit:true
  | Policy.Region_invalidated { entry } ->
    (* Cycle counting restarts from scratch for the retired entry. *)
    Counters.release ctx.Context.counters entry;
    Policy.No_action

(* At the threshold, form the cyclic trace the buffer holds (Figure 6) and
   drop the buffer after the earlier occurrence (line 13). *)
let on_cycle t ~tgt ~old_seq ~count =
  if count < t.ctx.Context.params.Params.lei_threshold then Policy.No_action
  else begin
    let path = Lei_former.form t.former ~ctx:t.ctx ~buf:t.buf ~start:tgt ~after_seq:old_seq in
    History_buffer.truncate_after t.buf ~seq:old_seq;
    Counters.release t.ctx.Context.counters tgt;
    match path with
    | Some path ->
      Policy.Install [ Region.spec_of_path ~kind:Region.Trace path ]
    | None -> Policy.No_action
  end

let handle t event = on_event t.ctx t.buf ~on_cycle t event
