open Regionsel_isa
module Trace_cfg = Regionsel_core.Trace_cfg
module Region = Regionsel_engine.Region
open Fixtures

let mk start size term = Block.make ~start ~size ~term

(* A diamond: A (cond) -> B | C -> D (join). *)
let a = mk 0 2 (Terminator.Cond 6)
let b = mk 2 2 (Terminator.Jump 9)
let c = mk 6 3 Terminator.Fallthrough
let d = mk 9 2 (Terminator.Cond 0)
let x = mk 20 2 Terminator.Fallthrough (* an unrelated rare tail *)

(* The program the diamond's blocks belong to: a CFG keys its blocks by
   id, so they must be the program's own blocks. *)
let diamond =
  Program.of_blocks_exn ~entry:0
    [ a; b; c; d; mk 11 9 (Terminator.Jump 20); x; mk 22 1 Terminator.Halt ]

let path_b = { Region.blocks = [ a; b; d ]; final_next = Some 0 }
let path_c = { Region.blocks = [ a; c; d ]; final_next = Some 0 }
let path_rare = { Region.blocks = [ a; b; d; x ]; final_next = None }

let build paths =
  let cfg = Trace_cfg.create diamond ~entry:0 in
  List.iter (Trace_cfg.add_path cfg) paths;
  cfg

let occurrence_counting () =
  let cfg = build [ path_b; path_c; path_b ] in
  check_int "three paths" 3 (Trace_cfg.n_paths cfg);
  check_int "four blocks" 4 (Trace_cfg.n_blocks cfg);
  check_int "entry in all" 3 (Trace_cfg.occurrences cfg 0);
  check_int "b in two" 2 (Trace_cfg.occurrences cfg 2);
  check_int "c in one" 1 (Trace_cfg.occurrences cfg 6);
  check_int "join in all" 3 (Trace_cfg.occurrences cfg 9);
  check_int "unknown block" 0 (Trace_cfg.occurrences cfg 99)

let occurrence_once_per_path () =
  (* A path revisiting a block counts it once. *)
  let looped = { Region.blocks = [ a; b; d; a; b; d ]; final_next = Some 0 } in
  let cfg = build [ looped ] in
  check_int "revisit counts once" 1 (Trace_cfg.occurrences cfg 0)

let marking () =
  let cfg = build [ path_b; path_b; path_c ] in
  Trace_cfg.mark_frequent cfg ~t_min:2;
  check_true "frequent marked" (Trace_cfg.is_marked cfg 2);
  check_true "rare unmarked" (not (Trace_cfg.is_marked cfg 6));
  check_true "entry marked" (Trace_cfg.is_marked cfg 0)

let rejoining_marks_rare_arm () =
  (* The rare arm C rejoins the marked join D, so it must be marked. *)
  let cfg = build [ path_b; path_b; path_c ] in
  Trace_cfg.mark_frequent cfg ~t_min:2;
  let passes = Trace_cfg.mark_rejoining_paths cfg in
  check_true "rare arm marked via rejoining" (Trace_cfg.is_marked cfg 6);
  check_true "one productive pass suffices" (passes <= 1)

let rejoining_ignores_dead_ends () =
  (* A rare tail that never rejoins stays unmarked. *)
  let cfg = build [ path_b; path_b; path_rare ] in
  Trace_cfg.mark_frequent cfg ~t_min:2;
  ignore (Trace_cfg.mark_rejoining_paths cfg);
  check_true "non-rejoining tail stays unmarked" (not (Trace_cfg.is_marked cfg 20))

let to_spec_prunes () =
  let cfg = build [ path_b; path_b; path_rare ] in
  Trace_cfg.mark_frequent cfg ~t_min:2;
  ignore (Trace_cfg.mark_rejoining_paths cfg);
  let spec = Trace_cfg.to_spec cfg in
  check_int "unmarked block pruned" 3 (List.length spec.Region.nodes);
  check_true "kind is combined" (spec.Region.kind = Region.Combined);
  check_int "copied insts equal surviving sizes" 6
    (Region.of_spec ~id:0 ~selected_at:0 ~program:diamond spec).Region.copied_insts

let to_spec_internal_edges () =
  let cfg = build [ path_b; path_c ] in
  Trace_cfg.mark_frequent cfg ~t_min:1;
  ignore (Trace_cfg.mark_rejoining_paths cfg);
  let spec = Trace_cfg.to_spec cfg in
  check_true "observed edges kept" (List.mem (0, 2) spec.Region.edges);
  check_true "both arms reach the join"
    (List.mem (2, 9) spec.Region.edges && List.mem (6, 9) spec.Region.edges);
  check_true "back edge from the final transfer" (List.mem (9, 0) spec.Region.edges)

let to_spec_static_link () =
  (* Block A's taken side targets C; even when only the B path was observed
     taking it... here we observe both, but we additionally check the static
     fall-through link of C to the next address is absent because 8 is not a
     node. *)
  let cfg = build [ path_b; path_c ] in
  Trace_cfg.mark_frequent cfg ~t_min:1;
  ignore (Trace_cfg.mark_rejoining_paths cfg);
  let spec = Trace_cfg.to_spec cfg in
  check_true "static cond edge present" (List.mem (0, 6) spec.Region.edges);
  List.iter
    (fun (src, dst) ->
      check_true "edge endpoints are nodes"
        (List.exists (fun (n : Block.t) -> n.Block.start = src) spec.Region.nodes
        && List.exists (fun (n : Block.t) -> n.Block.start = dst) spec.Region.nodes))
    spec.Region.edges

let entry_must_be_marked () =
  let cfg = build [ path_b ] in
  (* No marking at all. *)
  check_true "unmarked entry rejected"
    (try
       ignore (Trace_cfg.to_spec cfg);
       false
     with Invalid_argument _ -> true)

let path_entry_mismatch_rejected () =
  let cfg = Trace_cfg.create diamond ~entry:0 in
  check_true "wrong entry rejected"
    (try
       Trace_cfg.add_path cfg { Region.blocks = [ c; d ]; final_next = None };
       false
     with Invalid_argument _ -> true)

let combined paths =
  let cfg = build paths in
  Trace_cfg.mark_frequent cfg ~t_min:2;
  ignore (Trace_cfg.mark_rejoining_paths cfg);
  Trace_cfg.to_spec cfg

(* The region depends on the set of observed paths, not on the order they
   were merged in, nor on what a reused CFG held before. *)
let to_spec_order_independent () =
  let paths = [ path_b; path_c; path_b; path_rare; path_c ] in
  let expected = combined paths in
  List.iter
    (fun order ->
      check_true "same spec in any order" (combined order = expected))
    [ List.rev paths; [ path_rare; path_c; path_c; path_b; path_b ];
      [ path_c; path_b; path_rare; path_b; path_c ] ];
  let cfg = build [ path_rare; path_rare; path_rare ] in
  Trace_cfg.reset cfg ~entry:0;
  List.iter (Trace_cfg.add_path cfg) paths;
  Trace_cfg.mark_frequent cfg ~t_min:2;
  ignore (Trace_cfg.mark_rejoining_paths cfg);
  check_int "reset forgets the old paths" 5 (Trace_cfg.n_paths cfg);
  check_true "a reset CFG builds the fresh one's spec" (Trace_cfg.to_spec cfg = expected)

(* Property: after the rejoining pass, a block is marked iff a frequent
   block is reachable from it along observed edges. *)
let qcheck_rejoining_fixpoint =
  QCheck.Test.make ~name:"rejoining mark equals reachability of frequent blocks" ~count:100
    QCheck.(pair (int_range 1 6) (list_of_size (Gen.int_range 1 25) (int_bound 1000)))
    (fun (t_min, seeds) ->
      (* Build random path sets over a fixed diamond-chain program. *)
      let blocks =
        [|
          mk 0 2 (Terminator.Cond 4);
          mk 2 2 (Terminator.Jump 6) (* arm0 *);
          mk 4 2 Terminator.Fallthrough (* arm1 *);
          mk 6 2 (Terminator.Cond 10);
          mk 8 2 (Terminator.Jump 12) (* arm2 *);
          mk 10 2 Terminator.Fallthrough (* arm3 *);
          mk 12 2 (Terminator.Cond 0);
        |]
      in
      let program =
        Program.of_blocks_exn ~entry:0 (Array.to_list blocks @ [ mk 14 1 Terminator.Halt ])
      in
      let path_of_seed seed =
        let arm1 = seed land 1 = 0 and arm2 = seed land 2 = 0 in
        let p =
          [ blocks.(0); (if arm1 then blocks.(2) else blocks.(1)); blocks.(3);
            (if arm2 then blocks.(5) else blocks.(4)); blocks.(6) ]
        in
        { Region.blocks = p; final_next = (if seed land 4 = 0 then Some 0 else Some 99) }
      in
      let cfg = Trace_cfg.create program ~entry:0 in
      List.iter (fun s -> Trace_cfg.add_path cfg (path_of_seed s)) seeds;
      let frequent =
        List.filter
          (fun (b : Block.t) -> Trace_cfg.occurrences cfg b.Block.start >= t_min)
          (Array.to_list blocks)
      in
      Trace_cfg.mark_frequent cfg ~t_min;
      ignore (Trace_cfg.mark_rejoining_paths cfg);
      (* Every block on a path to a frequent block must end up marked; here
         all blocks reach block 6 (the latch) which reaches the entry, so if
         the entry or latch is frequent, every observed block is marked. *)
      let entry_frequent = List.exists (fun (b : Block.t) -> b.Block.start = 0) frequent in
      if entry_frequent then
        List.for_all
          (fun (b : Block.t) ->
            Trace_cfg.occurrences cfg b.Block.start = 0 || Trace_cfg.is_marked cfg b.Block.start)
          (Array.to_list blocks)
      else true)

let suite =
  [
    case "occurrence counting" occurrence_counting;
    case "occurrence once per path" occurrence_once_per_path;
    case "marking" marking;
    case "rejoining marks rare arm" rejoining_marks_rare_arm;
    case "rejoining ignores dead ends" rejoining_ignores_dead_ends;
    case "to_spec prunes" to_spec_prunes;
    case "to_spec internal edges" to_spec_internal_edges;
    case "to_spec static link" to_spec_static_link;
    case "entry must be marked" entry_must_be_marked;
    case "path entry mismatch rejected" path_entry_mismatch_rejected;
    case "to_spec order independent" to_spec_order_independent;
    QCheck_alcotest.to_alcotest qcheck_rejoining_fixpoint;
  ]
