module Policy = Regionsel_engine.Policy
module Context = Regionsel_engine.Context
module Params = Regionsel_engine.Params

type t = {
  ctx : Context.t;
  store : Observation_store.t;
  combine : Combine.t;
  buf : History_buffer.t;
  former : Lei_former.t;
}

let name = "combined-lei"

let create (ctx : Context.t) =
  let program = ctx.Context.program in
  let store = Observation_store.create program ctx.Context.gauges in
  {
    ctx;
    store;
    combine = Combine.create ctx store;
    buf = History_buffer.create program ~capacity:ctx.Context.params.Params.lei_buffer_size;
    former = Lei_former.create program;
  }

(* Checkpoint support. *)
let save t emit =
  Observation_store.save t.store emit;
  History_buffer.save t.buf emit

let load ctx read =
  let t = create ctx in
  Observation_store.load t.store read;
  History_buffer.load t.buf read;
  t

(* LEI's Figure 5 algorithm with the Figure 13 thresholds: counted cycle
   completions beyond [T_start] each record one observed cyclic trace. *)
let on_cycle t ~tgt ~old_seq ~count =
  if count <= t.ctx.Context.params.Params.combined_lei_start then Policy.No_action
  else begin
    let path = Lei_former.form t.former ~ctx:t.ctx ~buf:t.buf ~start:tgt ~after_seq:old_seq in
    History_buffer.truncate_after t.buf ~seq:old_seq;
    match path with
    | None -> Policy.No_action
    | Some path -> (
      match Combine.observe t.combine ~entry:tgt path with
      | Some spec -> Policy.Install [ spec ]
      | None -> Policy.No_action)
  end

let handle t event =
  (match event with
  | Policy.Region_invalidated { entry } ->
    (* Stored observations for the retired entry are dropped too; the
       history buffer ages out on its own. *)
    ignore (Observation_store.take t.store entry)
  | Policy.Interp_block _ | Policy.Cache_exited _ -> ());
  Lei.on_event t.ctx t.buf ~on_cycle t event
