open Regionsel_isa
module Region = Regionsel_engine.Region
module Context = Regionsel_engine.Context
module Counters = Regionsel_engine.Counters
module Params = Regionsel_engine.Params

type t = { ctx : Context.t; store : Observation_store.t; cfg : Trace_cfg.t }

let create (ctx : Context.t) store =
  let program = ctx.Context.program in
  { ctx; store; cfg = Trace_cfg.create program ~entry:(Program.entry program) }

let build_region t ~entry ~observations =
  let ctx = t.ctx and cfg = t.cfg in
  Trace_cfg.reset cfg ~entry;
  List.iter
    (fun obs ->
      if not (Addr.equal (Compact_trace.entry obs) entry) then
        invalid_arg "Combine.observe: observation entry mismatch";
      Trace_cfg.add_path cfg (Compact_trace.decode ctx.Context.program obs))
    observations;
  let t_min = min ctx.Context.params.Params.combine_t_min (Trace_cfg.n_paths cfg) in
  Trace_cfg.mark_frequent cfg ~t_min;
  ignore (Trace_cfg.mark_rejoining_paths cfg : int);
  let layout =
    if ctx.Context.params.Params.combined_layout_hot_first then `Hot_first
    else `Address_order
  in
  Trace_cfg.to_spec ~layout cfg

let observe t ~entry path =
  Observation_store.record t.store (Compact_trace.encode path);
  if Observation_store.count t.store entry < t.ctx.Context.params.Params.combine_t_prof then None
  else begin
    let observations = Observation_store.take t.store entry in
    Counters.release t.ctx.Context.counters entry;
    Some (build_region t ~entry ~observations)
  end
