(* Tests for the extension features: the bounded code cache (flush-all and
   FIFO eviction, regenerations) and the whole-method region policy with
   its multi-entry regions. *)

open Regionsel_isa
module Region = Regionsel_engine.Region
module Code_cache = Regionsel_engine.Code_cache
module Params = Regionsel_engine.Params
module Stats = Regionsel_engine.Stats
module Simulator = Regionsel_engine.Simulator
module Run_metrics = Regionsel_metrics.Run_metrics
module Policies = Regionsel_core.Policies
open Fixtures

let mk start size term = Block.make ~start ~size ~term

let spec_at ?(size = 10) start =
  (* One block of [size] instructions with a return: 1 stub, so the region
     costs size * 4 + 10 bytes. *)
  Region.spec_of_path ~kind:Region.Trace
    { Region.blocks = [ mk start size Terminator.Return ]; final_next = None }

let region_cost = (10 * Region.inst_bytes) + Region.stub_bytes

(* Bounded cache, unit level *)

let unbounded_never_evicts () =
  let cache = grid_cache () in
  for i = 0 to 99 do
    ignore (Code_cache.install cache (spec_at (i * 16)))
  done;
  check_int "all live" 100 (Code_cache.n_regions cache);
  check_int "no evictions" 0 (Code_cache.evictions cache)

let flush_all_on_overflow () =
  let cache = grid_cache ~capacity_bytes:(3 * region_cost) ~eviction:Params.Flush_all () in
  for i = 0 to 2 do
    ignore (Code_cache.install cache (spec_at (i * 16)))
  done;
  check_int "three fit" 3 (Code_cache.n_regions cache);
  ignore (Code_cache.install cache (spec_at 100));
  check_int "flush leaves only the newcomer" 1 (Code_cache.n_regions cache);
  check_int "one flush" 1 (Code_cache.flushes cache);
  check_int "three evictions" 3 (Code_cache.evictions cache);
  check_true "evicted entry no longer found" (Code_cache.find cache 0 = None);
  check_int "all regions remembers everyone" 4 (List.length (Code_cache.all_regions cache))

let fifo_evicts_oldest () =
  let cache =
    grid_cache ~capacity_bytes:(3 * region_cost) ~eviction:Params.Evict_oldest ()
  in
  for i = 0 to 3 do
    ignore (Code_cache.install cache (spec_at (i * 16)))
  done;
  check_int "still three live" 3 (Code_cache.n_regions cache);
  check_true "oldest gone" (Code_cache.find cache 0 = None);
  check_true "newest present" (Code_cache.find cache 48 <> None);
  check_int "one eviction" 1 (Code_cache.evictions cache)

let regeneration_counted () =
  let cache = grid_cache ~capacity_bytes:region_cost ~eviction:Params.Evict_oldest () in
  ignore (Code_cache.install cache (spec_at 0));
  ignore (Code_cache.install cache (spec_at 16)) (* evicts 0 *);
  ignore (Code_cache.install cache (spec_at 0)) (* re-selects 0 *);
  check_int "one regeneration" 1 (Code_cache.regenerations cache)

let bytes_accounting () =
  let cache = grid_cache ~capacity_bytes:(2 * region_cost) ~eviction:Params.Evict_oldest () in
  ignore (Code_cache.install cache (spec_at 0));
  check_int "one region's bytes" region_cost (Code_cache.bytes_used cache);
  ignore (Code_cache.install cache (spec_at 16));
  ignore (Code_cache.install cache (spec_at 32));
  check_true "capacity respected" (Code_cache.bytes_used cache <= 2 * region_cost)

let oversized_region_still_installs () =
  let cache = grid_cache ~capacity_bytes:10 ~eviction:Params.Evict_oldest () in
  ignore (Code_cache.install cache (spec_at 0));
  check_int "installed despite exceeding capacity" 1 (Code_cache.n_regions cache)

(* Bounded cache, end to end *)

let bounded_run_still_correct () =
  List.iter
    (fun eviction ->
      let params =
        { Params.default with Params.cache_capacity_bytes = Some 200; cache_eviction = eviction }
      in
      let result = run ~params Policies.net (figure4 ()) in
      let m = Run_metrics.of_result result in
      check_true "evictions happened" (m.Run_metrics.evictions > 0);
      check_true "regenerations happened" (m.Run_metrics.regenerations > 0);
      check_true "execution still mostly cached" (m.Run_metrics.hit_rate > 0.5))
    [ Params.Flush_all; Params.Evict_oldest ]

let bounded_cache_hurts_hit_rate () =
  let hit capacity =
    let params = { Params.default with Params.cache_capacity_bytes = capacity } in
    (Run_metrics.of_result (run ~params Policies.net (figure4 ()))).Run_metrics.hit_rate
  in
  check_true "tight cache no better than unbounded" (hit (Some 120) <= hit None)

let aux_entries_rejected_when_not_nodes () =
  check_true "aux entry must be a node"
    (try
       ignore
         (Region.of_spec ~id:0 ~selected_at:0 ~program:(grid_program ())
            { (spec_at 0) with Region.aux_entries = [ 999 ] });
       false
     with Invalid_argument _ -> true)

(* Whole-method regions *)

let method_selects_whole_function () =
  let result = run Policies.jit_method (figure2 ()) in
  let regions = regions_of result in
  check_true "selected something" (regions <> []);
  List.iter
    (fun (r : Region.t) -> check_true "kind is method" (r.Region.kind = Region.Method))
    regions;
  (* The callee (two blocks at 0x1000) must be one region... *)
  (match List.find_opt (fun (r : Region.t) -> r.Region.entry = 0x1000) regions with
  | Some callee -> check_int "callee has both blocks" 2 callee.Region.n_nodes
  | None -> Alcotest.fail "callee method not selected");
  ()

let method_reenters_at_continuation () =
  (* With both the caller's loop and the callee compiled, execution should
     stay almost entirely in the cache: returns re-enter the caller method
     at the call continuation (an aux entry). *)
  let result = run Policies.jit_method (figure2 ()) in
  check_true "hit rate above 95%" (Stats.hit_rate result.Simulator.stats > 0.95);
  let caller =
    List.find_opt
      (fun (r : Region.t) -> Region.mem_block r 0x100b (* the call block bd *))
      (regions_of result)
  in
  match caller with
  | Some r ->
    let node = Region.node_id r 0x100f in
    check_true "continuation is an aux entry" (node > 0 && r.Region.node_is_entry.(node));
    check_true "re-entered more often than invoked" (r.Region.entries > 1_000)
  | None -> Alcotest.fail "caller method not selected"

let method_includes_cold_code () =
  (* Method regions include the whole function, cold arms and all; the
     rarely-taken side C of figure2's loop is selected even though NET
     would exclude it. *)
  let result = run Policies.jit_method (figure2 ()) in
  check_true "cold block selected"
    (List.exists (fun r -> Region.mem_block r 0x1012 (* block c *)) (regions_of result))

let method_runs_on_suite () =
  List.iter
    (fun name ->
      let spec = Option.get (Regionsel_workload.Suite.find name) in
      let result =
        run ~max_steps:60_000 Policies.jit_method (Regionsel_workload.Spec.image spec)
      in
      check_true (name ^ " hit rate sane") (Stats.hit_rate result.Simulator.stats > 0.5))
    [ "gzip"; "eon"; "perlbmk" ]

let suite =
  [
    case "unbounded never evicts" unbounded_never_evicts;
    case "flush-all on overflow" flush_all_on_overflow;
    case "fifo evicts oldest" fifo_evicts_oldest;
    case "regeneration counted" regeneration_counted;
    case "bytes accounting" bytes_accounting;
    case "oversized region still installs" oversized_region_still_installs;
    case "bounded run still correct" bounded_run_still_correct;
    case "bounded cache hurts hit rate" bounded_cache_hurts_hit_rate;
    case "aux entries rejected when not nodes" aux_entries_rejected_when_not_nodes;
    case "method selects whole function" method_selects_whole_function;
    case "method re-enters at continuation" method_reenters_at_continuation;
    case "method includes cold code" method_includes_cold_code;
    case "method runs on suite" method_runs_on_suite;
  ]
