(* Unit tests for the engine substrate: counters, gauges, the edge profile,
   regions and the code cache. *)

open Regionsel_isa
module Counters = Regionsel_engine.Counters
module Gauges = Regionsel_engine.Gauges
module Edge_profile = Regionsel_engine.Edge_profile
module Region = Regionsel_engine.Region
module Code_cache = Regionsel_engine.Code_cache
open Fixtures

(* Counters *)

let counter_lifecycle () =
  let c = Counters.create (grid_program ()) in
  check_int "first increment" 1 (Counters.incr c 10);
  check_int "second increment" 2 (Counters.incr c 10);
  check_int "peek" 2 (Counters.peek c 10);
  check_int "one live" 1 (Counters.live c);
  Counters.release c 10;
  check_int "released" 0 (Counters.peek c 10);
  check_int "none live" 0 (Counters.live c);
  check_int "high water persists" 1 (Counters.high_water c)

let counter_high_water () =
  let c = Counters.create (grid_program ()) in
  for a = 1 to 5 do
    ignore (Counters.incr c a)
  done;
  Counters.release c 1;
  Counters.release c 2;
  ignore (Counters.incr c 6);
  check_int "high water is the peak" 5 (Counters.high_water c);
  check_int "total allocations count reuse" 6 (Counters.total_allocations c)

let counter_release_unknown () =
  let c = Counters.create (grid_program ()) in
  Counters.release c 42;
  check_int "releasing unknown is a no-op" 0 (Counters.live c)

(* Gauges *)

let gauge_high_water () =
  let g = Gauges.create () in
  Gauges.add_observed_bytes g 100;
  Gauges.add_observed_bytes g 50;
  Gauges.add_observed_bytes g (-120);
  check_int "current" 30 (Gauges.observed_bytes g);
  check_int "high water" 150 (Gauges.observed_bytes_high_water g)

(* Edge profile *)

let edge_profile_counts () =
  let e = edge_profile () in
  Edge_profile.record e ~src:1 ~dst:2;
  Edge_profile.record e ~src:1 ~dst:2;
  Edge_profile.record e ~src:3 ~dst:2;
  check_int "count accumulates" 2 (Edge_profile.count e ~src:1 ~dst:2);
  check_int "distinct edges" 2 (Edge_profile.n_edges e);
  Alcotest.(check (list int)) "preds" [ 1; 3 ] (Addr.Set.elements (Edge_profile.preds e 2));
  check_true "no preds for unknown block" (Addr.Set.is_empty (Edge_profile.preds e 9))

let edge_profile_index_invalidation () =
  let e = edge_profile () in
  Edge_profile.record e ~src:1 ~dst:2;
  ignore (Edge_profile.preds e 2);
  Edge_profile.record e ~src:5 ~dst:2;
  Alcotest.(check (list int)) "index rebuilt after new edge" [ 1; 5 ]
    (Addr.Set.elements (Edge_profile.preds e 2))

(* The figure 2 program's conditional loop branch and its return: the
   first has both a taken and a fall-through successor the terminator
   names, the second a target known only at run time. *)
let figure2_edges () =
  let program = (figure2 ()).Regionsel_workload.Image.program in
  let blocks = Array.to_list (Program.blocks program) in
  let cond =
    List.find
      (fun (b : Block.t) -> match b.Block.term with Terminator.Cond _ -> true | _ -> false)
      blocks
  in
  let ret = List.find (fun (b : Block.t) -> b.Block.term = Terminator.Return) blocks in
  (program, cond, ret)

(* Before the dense tier every edge went through the ring, so an older
   snapshot's ring can hold static edges.  Such a stream, built by hand in
   that layout, must load to the counts it describes, and keep counting on
   top of them. *)
let edge_profile_loads_ring_held_static_edges () =
  let program, cond, ret = figure2_edges () in
  let id = Program.block_id program cond.Block.start in
  let taken_dst = Block.static_succ cond ~taken:true in
  let fall_dst = Block.static_succ cond ~taken:false in
  let key src dst = (src lsl 32) lor dst in
  let slot k = (k * 0x9E3779B97F4A7C1) lsr (63 - 9) in
  let ring_keys = Array.make 512 (-1) and ring_counts = Array.make 512 0 in
  let put k c =
    ring_keys.(slot k) <- k;
    ring_counts.(slot k) <- c
  in
  put (key cond.Block.start taken_dst) 5;
  put (key ret.Block.start 77) 2;
  let table = List.sort compare [ (key cond.Block.start taken_dst, 3); (key cond.Block.start fall_dst, 4) ] in
  let stream =
    (512 :: Array.to_list ring_keys)
    @ Array.to_list ring_counts
    @ [ 2; 6; List.length table ]
    @ List.concat_map (fun (k, c) -> [ k; c ]) table
  in
  let e = Edge_profile.create ~program () in
  Edge_profile.load e (reader_of_ints stream);
  check_int "ring plus table" 8 (Edge_profile.count e ~src:cond.Block.start ~dst:taken_dst);
  check_int "table only" 4 (Edge_profile.count e ~src:cond.Block.start ~dst:fall_dst);
  check_int "dynamic edge from the ring" 2 (Edge_profile.count e ~src:ret.Block.start ~dst:77);
  check_int "flushes carried over, plus the read's drain" 7 (Edge_profile.flushes e);
  Edge_profile.record_step e ~block_id:id ~taken:true ~src:cond.Block.start ~dst:taken_dst;
  Edge_profile.record_step e ~block_id:id ~taken:false ~src:cond.Block.start ~dst:fall_dst;
  check_int "dense counts add on" 9 (Edge_profile.count e ~src:cond.Block.start ~dst:taken_dst);
  check_int "dense counts add on, fall-through" 5
    (Edge_profile.count e ~src:cond.Block.start ~dst:fall_dst);
  check_int "three edges" 3 (Edge_profile.n_edges e)

(* The loader used to overwrite the ring before rejecting an out-of-range
   occupancy, leaving the ring and [ring_live] out of step. *)
let edge_profile_load_is_atomic () =
  let program, cond, ret = figure2_edges () in
  let e = Edge_profile.create ~program () in
  Edge_profile.record e ~src:ret.Block.start ~dst:40;
  Edge_profile.record_step e
    ~block_id:(Program.block_id program cond.Block.start)
    ~taken:true ~src:cond.Block.start
    ~dst:(Block.static_succ cond ~taken:true);
  let other = edge_profile () in
  Edge_profile.record other ~src:ret.Block.start ~dst:50;
  Edge_profile.record other ~src:3 ~dst:4;
  let stream = Array.of_list (saved_ints (Edge_profile.save other)) in
  (* [ring_size], the keys, the counts, then [ring_live]. *)
  stream.(1 + 512 + 512) <- 513;
  check_load_is_atomic ~what:"ring occupancy out of range" ~save:(Edge_profile.save e)
    ~load:(Edge_profile.load e) (Array.to_list stream);
  check_load_is_atomic ~what:"short edges stream" ~save:(Edge_profile.save e)
    ~load:(Edge_profile.load e)
    (List.filteri (fun i _ -> i < 600) (saved_ints (Edge_profile.save other)))

(* Regions *)

let mk start size term = Block.make ~start ~size ~term

let compiled spec = Region.of_spec ~id:0 ~selected_at:0 ~program:(grid_program ()) spec

let trace_path () =
  (* A three-block path closing a cycle back to its entry. *)
  let b0 = mk 0 3 (Terminator.Cond 100) in
  let b1 = mk 3 2 Terminator.Fallthrough in
  let b2 = mk 5 2 (Terminator.Cond 0) in
  { Region.blocks = [ b0; b1; b2 ]; final_next = Some 0 }

let spec_of_path_cycle () =
  let spec = Region.spec_of_path ~kind:Region.Trace (trace_path ()) in
  check_int "entry is first block" 0 spec.Region.entry;
  check_int "three nodes" 3 (List.length spec.Region.nodes);
  check_int "seven instructions" 7 (compiled spec).Region.copied_insts;
  check_true "cycle edge present" (List.mem (5, 0) spec.Region.edges);
  check_int "three edges" 3 (List.length spec.Region.edges)

let spec_of_path_duplicates () =
  let b0 = mk 0 2 (Terminator.Jump 4) in
  let b1 = mk 4 3 (Terminator.Jump 0) in
  let path = { Region.blocks = [ b0; b1; b0; b1 ]; final_next = Some 0 } in
  let spec = Region.spec_of_path ~kind:Region.Trace path in
  check_int "nodes deduplicated" 2 (List.length spec.Region.nodes);
  check_int "copied instructions count each block once" 5 (compiled spec).Region.copied_insts

let spec_of_path_no_cycle () =
  let path =
    { (trace_path ()) with Region.final_next = Some 100 (* leaves the region *) }
  in
  let spec = Region.spec_of_path ~kind:Region.Trace path in
  check_int "only the two path edges" 2 (List.length spec.Region.edges)

let region_cyclic_detection () =
  let r = Region.of_spec ~id:0 ~selected_at:0 ~program:(grid_program ()) (Region.spec_of_path ~kind:Region.Trace (trace_path ())) in
  check_true "spans a cycle" r.Region.spans_cycle;
  check_true "has the internal edge" (Region.has_edge r ~src:5 ~dst:0);
  check_true "no phantom edge" (not (Region.has_edge r ~src:0 ~dst:5))

let region_stub_counts () =
  (* b0: Cond, taken side (100) leaves, fall side (3) internal -> 1 stub.
     b1: Fallthrough internal -> 0 stubs.
     b2: Cond, taken side (0) internal, fall side (7) leaves -> 1 stub. *)
  let r = Region.of_spec ~id:0 ~selected_at:0 ~program:(grid_program ()) (Region.spec_of_path ~kind:Region.Trace (trace_path ())) in
  check_int "two stubs" 2 r.Region.n_stubs

let region_stub_indirect () =
  let b0 = mk 0 2 Terminator.Fallthrough in
  let b1 = mk 2 2 Terminator.Return in
  let path = { Region.blocks = [ b0; b1 ]; final_next = Some 50 } in
  let r = Region.of_spec ~id:0 ~selected_at:0 ~program:(grid_program ()) (Region.spec_of_path ~kind:Region.Trace path) in
  (* Fallthrough internal; the return always needs its mispredict stub. *)
  check_int "return keeps one stub" 1 r.Region.n_stubs

let region_bad_spec () =
  let b0 = mk 0 2 Terminator.Fallthrough in
  check_true "edge endpoint must be a node"
    (try
       ignore
         (Region.of_spec ~id:0 ~selected_at:0 ~program:(grid_program ())
            { Region.entry = 0; nodes = [ b0 ]; edges = [ 0, 99 ];
              kind = Region.Trace; aux_entries = []; layout_hint = [] });
       false
     with Invalid_argument _ -> true);
  check_true "entry must be a node"
    (try
       ignore
         (Region.of_spec ~id:0 ~selected_at:0 ~program:(grid_program ())
            { Region.entry = 9; nodes = [ b0 ]; edges = [];
              kind = Region.Trace; aux_entries = []; layout_hint = [] });
       false
     with Invalid_argument _ -> true)

let region_exit_log () =
  let r = Region.of_spec ~id:0 ~selected_at:0 ~program:(grid_program ()) (Region.spec_of_path ~kind:Region.Trace (trace_path ())) in
  Region.record_exit r ~from:0 ~tgt:100;
  Region.record_exit r ~from:0 ~tgt:100;
  Region.record_exit r ~from:5 ~tgt:7;
  check_int "exits counted" 3 r.Region.exits;
  Alcotest.(check (list int)) "exit targets" [ 7; 100 ]
    (Addr.Set.elements (Region.exit_targets r));
  Alcotest.(check (list int)) "exited_to resolves blocks" [ 0 ]
    (Addr.Set.elements (Region.exited_to r ~tgt:100))

(* Code cache *)

let cache_basics () =
  let cache = grid_cache () in
  let spec = Region.spec_of_path ~kind:Region.Trace (trace_path ()) in
  let r = Code_cache.install_exn cache spec in
  check_int "region id assigned" 0 r.Region.id;
  check_true "found by entry" (Code_cache.find cache 0 <> None);
  check_true "body addresses are not entries" (Code_cache.find cache 3 = None);
  check_int "one region" 1 (Code_cache.n_regions cache)

let cache_duplicate_rejected () =
  let cache = grid_cache () in
  let spec = Region.spec_of_path ~kind:Region.Trace (trace_path ()) in
  ignore (Code_cache.install_exn cache spec);
  check_true "duplicate entry reported as typed rejection"
    (Code_cache.install cache spec = Error Code_cache.Duplicate_entry);
  check_int "rejected install leaves one region" 1 (Code_cache.n_regions cache);
  check_true "install_exn raises on rejection"
    (try
       ignore (Code_cache.install_exn cache spec);
       false
     with Invalid_argument _ -> true)

let cache_selection_order () =
  let cache = grid_cache () in
  let spec1 = Region.spec_of_path ~kind:Region.Trace (trace_path ()) in
  let b = mk 100 2 Terminator.Halt in
  let spec2 =
    Region.spec_of_path ~kind:Region.Trace { Region.blocks = [ b ]; final_next = None }
  in
  let r1 = Code_cache.install_exn cache spec1 in
  let r2 = Code_cache.install_exn cache spec2 in
  check_true "selection order preserved"
    (List.map (fun (r : Region.t) -> r.Region.id) (Code_cache.regions cache) = [ 0; 1 ]);
  check_true "selected_at increases" (r1.Region.selected_at < r2.Region.selected_at)

let qcheck_stub_bound =
  (* Stubs never exceed two per block (a conditional's two directions). *)
  QCheck.Test.make ~name:"stub count bounded by 2x nodes" ~count:200
    QCheck.(int_range 1 30)
    (fun n ->
      let blocks =
        List.init n (fun i -> mk (i * 3) 3 (if i = n - 1 then Terminator.Return else Terminator.Fallthrough))
      in
      let path = { Region.blocks; final_next = None } in
      let r = Region.of_spec ~id:0 ~selected_at:0 ~program:(grid_program ()) (Region.spec_of_path ~kind:Region.Trace path) in
      r.Region.n_stubs <= 2 * n && r.Region.n_stubs >= 1)

let suite =
  [
    case "counter lifecycle" counter_lifecycle;
    case "counter high water" counter_high_water;
    case "counter release unknown" counter_release_unknown;
    case "gauge high water" gauge_high_water;
    case "edge profile counts" edge_profile_counts;
    case "edge profile index invalidation" edge_profile_index_invalidation;
    case "edge profile loads ring-held static edges" edge_profile_loads_ring_held_static_edges;
    case "edge profile load is atomic" edge_profile_load_is_atomic;
    case "spec_of_path cycle" spec_of_path_cycle;
    case "spec_of_path duplicates" spec_of_path_duplicates;
    case "spec_of_path no cycle" spec_of_path_no_cycle;
    case "region cyclic detection" region_cyclic_detection;
    case "region stub counts" region_stub_counts;
    case "region stub indirect" region_stub_indirect;
    case "region bad spec" region_bad_spec;
    case "region exit log" region_exit_log;
    case "cache basics" cache_basics;
    case "cache duplicate rejected" cache_duplicate_rejected;
    case "cache selection order" cache_selection_order;
    QCheck_alcotest.to_alcotest qcheck_stub_bound;
  ]
