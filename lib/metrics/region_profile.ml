open Regionsel_isa
module Region = Regionsel_engine.Region
module Simulator = Regionsel_engine.Simulator
module Stats = Regionsel_engine.Stats
module Context = Regionsel_engine.Context
module Code_cache = Regionsel_engine.Code_cache

type exit_route = { from_block : Addr.t; target : Addr.t; count : int }

type t = {
  region : Region.t;
  exec_share : float;
  completion_ratio : float;
  insts_per_entry : float;
  routes : exit_route list;
}

let routes_of (r : Region.t) =
  let all =
    Region.fold_exits
      (fun key count acc ->
        { from_block = Region.exit_src key; target = Region.exit_tgt key; count } :: acc)
      r []
  in
  List.sort (fun a b -> compare b.count a.count) all

let profile_of ~total_insts (r : Region.t) =
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  {
    region = r;
    exec_share = ratio r.Region.insts_executed total_insts;
    completion_ratio = ratio r.Region.cycle_iters (r.Region.cycle_iters + r.Region.exits);
    insts_per_entry = ratio r.Region.insts_executed r.Region.entries;
    routes = routes_of r;
  }

let of_result (result : Simulator.result) =
  let total_insts = Stats.total_insts result.Simulator.stats in
  let profiles =
    List.map (profile_of ~total_insts)
      (Code_cache.all_regions result.Simulator.ctx.Context.cache)
  in
  List.sort (fun a b -> compare b.exec_share a.exec_share) profiles

let pp ppf t =
  let r = t.region in
  let kind =
    match r.Region.kind with
    | Region.Trace -> "trace"
    | Region.Combined -> "region"
    | Region.Method -> "method"
  in
  Format.fprintf ppf
    "@[<v>%s #%d entry=%a: %.1f%% of execution, %d entries, %.1f insts/entry, %s%.1f%% \
     completed cycles"
    kind r.Region.id Addr.pp r.Region.entry (100.0 *. t.exec_share) r.Region.entries
    t.insts_per_entry
    (if r.Region.spans_cycle then "" else "acyclic, ")
    (100.0 *. t.completion_ratio);
  List.iteri
    (fun i { from_block; target; count } ->
      if i < 5 then
        Format.fprintf ppf "@,  exit %a -> %a: %d times" Addr.pp from_block Addr.pp target count)
    t.routes;
  if List.length t.routes > 5 then
    Format.fprintf ppf "@,  (%d more exit routes)" (List.length t.routes - 5);
  Format.fprintf ppf "@]"
