open Regionsel_isa
module Region = Regionsel_engine.Region
module Context = Regionsel_engine.Context
module Counters = Regionsel_engine.Counters
module Params = Regionsel_engine.Params

let build_region (ctx : Context.t) ~entry ~observations =
  let cfg = Trace_cfg.create ~entry in
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

let observe (ctx : Context.t) store ~entry path =
  Observation_store.record store (Compact_trace.encode path);
  if Observation_store.count store entry < ctx.Context.params.Params.combine_t_prof then None
  else begin
    let observations = Observation_store.take store entry in
    Counters.release ctx.Context.counters entry;
    Some (build_region ctx ~entry ~observations)
  end
