(* Compiled-region representation tests: cache-layout node numbering, the
   successor bitset (including multi-word rows), the block-id translation,
   offsets before and after installation, and the link-slot arrays. *)

open Regionsel_isa
module Region = Regionsel_engine.Region
open Fixtures

let mk start size term = Block.make ~start ~size ~term

let spec ?(kind = Region.Combined) ?(edges = []) ?(aux = []) ?(hint = []) ~entry nodes =
  {
    Region.entry;
    nodes;
    edges;
    kind;
    aux_entries = aux;
    layout_hint = hint;
  }

let starts region = List.map (fun (b : Block.t) -> b.Block.start) (Region.layout_blocks region)
let check_starts = Alcotest.(check (list int))

(* Four blocks, entry in the middle, a partial layout hint: the entry is
   node 0, hinted blocks follow in hint order, the rest in address order. *)
let layout_hint_ordering () =
  let nodes = [ mk 0 2 Terminator.Return; mk 16 3 Terminator.Return;
                mk 32 4 Terminator.Return; mk 48 5 Terminator.Return ] in
  let r = Region.of_spec ~id:0 ~selected_at:0 ~program:(grid_program ()) (spec ~entry:32 ~hint:[ 48; 16 ] nodes) in
  check_starts "entry, hint order, then address order" [ 32; 48; 16; 0 ] (starts r);
  check_int "entry is node 0" 0 (Region.node_id r 32);
  check_int "first hinted block is node 1" 1 (Region.node_id r 48);
  check_int "unhinted block comes last" 3 (Region.node_id r 0);
  check_int "non-node address has no node id" (-1) (Region.node_id r 100);
  (* [nodes] stays in address order regardless of layout. *)
  Alcotest.(check (list int)) "nodes are address-sorted" [ 0; 16; 32; 48 ]
    (List.map (fun (b : Block.t) -> b.Block.start) (Region.nodes r))

let entry_first_even_when_hinted_late () =
  (* A hint listing the entry late must not displace it from node 0. *)
  let nodes = [ mk 0 2 Terminator.Return; mk 16 3 Terminator.Return ] in
  let r = Region.of_spec ~id:0 ~selected_at:0 ~program:(grid_program ()) (spec ~entry:0 ~hint:[ 16; 0 ] nodes) in
  check_starts "entry stays first" [ 0; 16 ] (starts r);
  check_true "entry node is dispatchable" r.Region.node_is_entry.(0);
  check_true "interior node is not" (not r.Region.node_is_entry.(1))

let offsets_before_and_after_install () =
  let nodes = [ mk 0 2 Terminator.Return; mk 16 3 Terminator.Return ] in
  let r = Region.of_spec ~id:0 ~selected_at:0 ~program:(grid_program ()) (spec ~entry:0 nodes) in
  (* Layout offsets exist independently of installation... *)
  check_int "entry at offset 0" 0 (Region.block_offset r 0);
  check_int "second block follows the entry's copy" (2 * Region.inst_bytes)
    (Region.block_offset r 16);
  check_int "non-node offset is -1" (-1) (Region.block_offset r 100);
  (* ...but cache addresses do not exist until the cache places the region. *)
  check_true "no cache addr before install" (Region.block_cache_addr r 16 = None);
  Region.set_cache_base r ~line_bytes:16 1_000;
  (* 1_000 .. 1_007 and 1_008 .. 1_019 in 16-byte lines. *)
  Alcotest.(check (array int)) "node line spans" [| 62; 62; 63; 63 |] r.Region.node_lines;
  check_true "cache addr after install"
    (Region.block_cache_addr r 16 = Some (1_000 + (2 * Region.inst_bytes)));
  check_true "entry cache addr after install" (Region.block_cache_addr r 0 = Some 1_000);
  check_true "non-node still has no cache addr" (Region.block_cache_addr r 100 = None)

let edge_queries_agree () =
  let nodes = [ mk 0 2 Terminator.Return; mk 16 3 Terminator.Return;
                mk 32 4 Terminator.Return ] in
  let edges = [ 0, 16; 16, 32; 32, 0; 0, 32 ] in
  let r = Region.of_spec ~id:0 ~selected_at:0 ~program:(grid_program ()) (spec ~entry:0 ~edges nodes) in
  check_true "spans cycle via edge to entry" r.Region.spans_cycle;
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          let by_addr = Region.has_edge r ~src ~dst in
          check_true "has_edge matches the spec"
            (by_addr = List.mem (src, dst) edges);
          let s = Region.node_id r src and d = Region.node_id r dst in
          check_true "bitset agrees with has_edge"
            (Region.has_edge_nodes r ~src:s ~dst:d = by_addr))
        [ 0; 16; 32 ])
    [ 0; 16; 32 ];
  check_true "edge to a non-node is absent" (not (Region.has_edge r ~src:0 ~dst:100));
  (* The compiled fall-through is the first internal successor listed. *)
  check_int "hot successor is the first edge" 16 r.Region.hot_succ_addr.(Region.node_id r 0);
  check_int "hot successor node id" (Region.node_id r 16)
    r.Region.hot_succ_node.(Region.node_id r 0)

let wide_region_uses_multiword_rows () =
  (* 40 nodes: each bitset row spans two 32-bit words, so edges to nodes
     32..39 live in the second word of their row. *)
  let n = 40 in
  let nodes = List.init n (fun i -> mk (i * 16) 2 Terminator.Return) in
  let edges = [ 0, (n - 1) * 16; (n - 1) * 16, 0 ] in
  let r = Region.of_spec ~id:0 ~selected_at:0 ~program:(grid_program ()) (spec ~entry:0 ~edges nodes) in
  check_int "two words per row" 2 r.Region.succ_stride;
  check_int "node count" n r.Region.n_nodes;
  (* No hint: node ids follow address order, so node (n-1) sits past bit 31. *)
  check_int "last node id" (n - 1) (Region.node_id r ((n - 1) * 16));
  check_true "edge into the second word"
    (Region.has_edge_nodes r ~src:0 ~dst:(n - 1));
  check_true "edge back out of the second word"
    (Region.has_edge_nodes r ~src:(n - 1) ~dst:0);
  check_true "absent high-word edge stays absent"
    (not (Region.has_edge_nodes r ~src:1 ~dst:(n - 1)))

let block_translation_requires_program () =
  let blocks = [ mk 0 2 Terminator.Return; mk 16 3 Terminator.Return;
                 mk 32 4 Terminator.Return ] in
  let program = Program.of_blocks_exn ~entry:0 blocks in
  let s = spec ~entry:16 [ mk 16 3 Terminator.Return; mk 32 4 Terminator.Return ] in
  let r = Region.of_spec ~id:0 ~selected_at:0 ~program s in
  check_int "member block translates to its node" 0
    (Region.node_of_block_id r (Program.block_id program 16));
  check_int "other member block" 1
    (Region.node_of_block_id r (Program.block_id program 32));
  check_int "non-member block translates to -1" (-1)
    (Region.node_of_block_id r (Program.block_id program 0));
  check_int "one link slot per program block" 3 (Region.n_link_slots r);
  check_true "slots start unlinked" (Region.link_target r 0 = None);
  (* Links are stored over the span of the linked slots, grown on
     demand; every slot below [n_link_slots] can be linked. *)
  let other = Region.of_spec ~id:2 ~selected_at:2 ~program s in
  let linked slot = match Region.link_target r slot with Some t -> t == other | None -> false in
  Region.set_link r ~slot:2 (Some other);
  check_true "slot 2 linked, 0 not" (linked 2 && not (linked 0));
  Region.set_link r ~slot:0 (Some other);
  check_true "slots 0 and 2 linked, 1 not" (linked 0 && linked 2 && not (linked 1));
  Region.set_link r ~slot:2 None;
  check_true "unlinked again" (linked 0 && not (linked 2));
  check_int "clear_links counts the live link" 1 (Region.clear_links r);
  check_true "slot past the program rejected"
    (try
       Region.set_link r ~slot:3 (Some other);
       false
     with Invalid_argument _ -> true);
  check_true "out-of-range link query is None" (Region.link_target r 9_999 = None);
  (* A node that is not a block start of the program is rejected. *)
  check_true "node off the program rejected"
    (try
       ignore (Region.of_spec ~id:1 ~selected_at:1 ~program (spec ~entry:16 [ mk 16 3 Terminator.Return; mk 20 4 Terminator.Return ]));
       false
     with Invalid_argument _ -> true)

let duplicate_nodes_deduped () =
  (* A spec listing a block twice compiles it once; node count and layout
     reflect the distinct set. *)
  let b0 = mk 0 2 Terminator.Return and b1 = mk 16 3 Terminator.Return in
  let r = Region.of_spec ~id:0 ~selected_at:0 ~program:(grid_program ()) (spec ~entry:0 [ b0; b1; b0 ]) in
  check_int "distinct nodes only" 2 r.Region.n_nodes;
  check_starts "each block placed once" [ 0; 16 ] (starts r)

(* A malformed spec fails its first check, in a fixed order: the entry,
   the edge endpoints, the aux entries, and only then nodes that are not
   block starts, naming the one the layout would place first. *)
let malformed_specs_fail_in_check_order () =
  let program =
    Program.of_blocks_exn ~entry:0
      [ mk 0 2 Terminator.Return; mk 16 3 Terminator.Return; mk 32 4 Terminator.Return ]
  in
  let fails what expected s =
    match Region.of_spec ~id:0 ~selected_at:0 ~program s with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument msg ->
      Alcotest.(check string) what ("Region.of_spec: " ^ expected) msg
  in
  let stray a = Printf.sprintf "node %s is not a block start of the program" (Addr.to_string a) in
  let nodes =
    [ mk 16 3 Terminator.Return; mk 20 1 Terminator.Return; mk 32 4 Terminator.Return;
      mk 40 1 Terminator.Return ]
  in
  fails "entry first" "entry is not a node" (spec ~entry:0 nodes);
  fails "edge endpoints next" "edge endpoint is not a node" (spec ~entry:16 ~edges:[ (16, 0) ] nodes);
  fails "aux entries next" "aux entry is not a node" (spec ~entry:16 ~aux:[ 0 ] nodes);
  fails "a stray edge endpoint is a node" (stray 20) (spec ~entry:16 ~edges:[ (16, 40) ] nodes);
  fails "unhinted strays in address order" (stray 20) (spec ~entry:16 nodes);
  fails "hinted strays in hint order" (stray 40) (spec ~entry:16 ~hint:[ 40; 20 ] nodes);
  fails "a stray entry first" (stray 40) (spec ~entry:40 ~hint:[ 20 ] nodes)

let entry_listed_as_aux_is_dropped () =
  let program = grid_program () in
  let nodes = [ mk 16 3 Terminator.Return; mk 32 4 Terminator.Return ] in
  let r = Region.of_spec ~id:0 ~selected_at:0 ~program (spec ~entry:16 ~aux:[ 32; 16 ] nodes) in
  let aux = ref [] in
  Region.iter_aux_entries (fun bid -> aux := bid :: !aux) r;
  Alcotest.(check (list int)) "only the non-entry aux entry" [ Program.block_id program 32 ] !aux;
  check_true "both nodes dispatchable" (r.Region.node_is_entry.(0) && r.Region.node_is_entry.(1))

(* Exit slots.  A region over a conditional (both directions leave it),
   an indirect jump and a return, counted through [record_exit_at], must
   read exactly as one whose every exit is a [record_exit] probe: the same
   [exit_log] bindings in the same fold order, the same [exit_targets],
   [exited_to] and [save] stream — before and after [Region.load]. *)
let exit_slots_match_per_exit_bumps () =
  let a = mk 0 2 (Terminator.Cond 10) and b = mk 2 2 Terminator.Indirect_jump in
  let c = mk 4 2 Terminator.Return in
  let program =
    Program.of_blocks_exn ~entry:0 [ a; b; c; mk 6 4 (Terminator.Jump 0); mk 10 2 Terminator.Halt ]
  in
  let s = spec ~entry:0 ~edges:[ (2, 4) ] [ a; b; c ] in
  let slotted = Region.of_spec ~id:0 ~selected_at:0 ~program s in
  let bumped = Region.of_spec ~id:0 ~selected_at:0 ~program s in
  (* (node, taken, target): both directions of [a], then the indirect jump
     and the return to two targets each. *)
  let exits =
    [ (0, true, 10); (0, false, 2); (0, true, 10); (1, true, 6); (2, true, 10); (0, false, 2);
      (1, true, 0); (2, true, 10); (0, true, 10); (2, true, 6); (1, true, 6); (0, false, 2) ]
  in
  let take slotted bumped =
    List.iter
      (fun (node, taken, tgt) ->
        let from = slotted.Region.node_blocks.(node).Block.start in
        Region.record_exit_at slotted ~node ~taken ~from ~tgt;
        Region.record_exit bumped ~from ~tgt)
      exits
  in
  let agree what slotted bumped =
    (* The save first: it must fold pending counts in by itself. *)
    Alcotest.(check (list int)) (what ^ ": save") (saved_ints (Region.save bumped))
      (saved_ints (Region.save slotted));
    let bindings r = Region.fold_exits (fun k c acc -> (k, c) :: acc) r [] in
    Alcotest.(check (list (pair int int))) (what ^ ": exit_log") (bindings bumped) (bindings slotted);
    Alcotest.(check (list int))
      (what ^ ": exit_targets")
      (Addr.Set.elements (Region.exit_targets bumped))
      (Addr.Set.elements (Region.exit_targets slotted));
    List.iter
      (fun tgt ->
        Alcotest.(check (list int))
          (Printf.sprintf "%s: exited_to %d" what tgt)
          (Addr.Set.elements (Region.exited_to bumped ~tgt))
          (Addr.Set.elements (Region.exited_to slotted ~tgt)))
      [ 0; 2; 6; 10 ]
  in
  take slotted bumped;
  check_int "every exit counted" (List.length exits) slotted.Region.exits;
  agree "live" slotted bumped;
  let reload r = Region.load ~program ~line_bytes:16 (reader_of_ints (saved_ints (Region.save r))) in
  let slotted = reload slotted and bumped = reload bumped in
  agree "loaded" slotted bumped;
  take slotted bumped;
  agree "loaded, then exited again" slotted bumped

(* [copied_insts] is derived from the nodes; a saved value that disagrees
   with their sum marks a corrupt stream.  Stream layout: id, selected_at,
   kind, node count, node addresses, copied_insts, ... *)
let load_checks_copied_insts () =
  let blocks = [ mk 0 2 Terminator.Return; mk 16 3 Terminator.Return ] in
  let program = Program.of_blocks_exn ~entry:0 blocks in
  let r = Region.of_spec ~id:0 ~selected_at:0 ~program (spec ~entry:0 blocks) in
  check_int "copied_insts sums the nodes" 5 r.Region.copied_insts;
  let stream = saved_ints (Region.save r) in
  check_int "stored value" 5 (List.nth stream 6);
  let load ints = Region.load ~program ~line_bytes:16 (reader_of_ints ints) in
  Alcotest.(check (list int)) "round trip" stream (saved_ints (Region.save (load stream)));
  check_true "a wrong copied_insts is rejected"
    (try
       ignore (load (List.mapi (fun i v -> if i = 6 then 6 else v) stream));
       false
     with Failure _ -> true)

(* Every region the seven policies select on the twelve benches, at a
   reduced budget, compiles consistently: the emitter's independent stub
   count agrees with [n_stubs] (it raises otherwise), the block-id
   translation agrees with the nodes over every block of the program, the
   aux entries are the dispatchable non-entry nodes, and a save -> load ->
   save round trip reproduces the stream. *)
let every_selected_region_compiles () =
  let module Suite = Regionsel_workload.Suite in
  let module Spec = Regionsel_workload.Spec in
  let module Image = Regionsel_workload.Image in
  let module Policies = Regionsel_core.Policies in
  let module Emitter = Regionsel_engine.Emitter in
  let n_regions = ref 0 and n_aux = ref 0 in
  List.iter
    (fun ((spec : Spec.t), (pname, policy)) ->
      let image = Spec.image spec in
      let program = image.Image.program in
      let result = run ~seed:1L ~max_steps:200_000 policy image in
      let expect = Array.make (Program.n_blocks program) (-1) in
      List.iter
        (fun (r : Region.t) ->
          let fail fmt =
            Alcotest.failf ("%s/%s region #%d: " ^^ fmt) spec.Spec.name pname r.Region.id
          in
          incr n_regions;
          let emitted = Emitter.emit r in
          if Emitter.total_bytes emitted <> Region.cache_bytes r then
            fail "emitted %d bytes, cost model %d" (Emitter.total_bytes emitted)
              (Region.cache_bytes r);
          Array.iteri
            (fun i (b : Block.t) -> expect.(Program.block_id program b.Block.start) <- i)
            r.Region.node_blocks;
          Program.iter_blocks
            (fun b ->
              let a = b.Block.start in
              let bid = Program.block_id program a in
              let node = Region.node_id r a in
              if node <> expect.(bid) || Region.node_of_block_id r bid <> node then
                fail "block %s translates to node %d, expected %d" (Addr.to_string a) node
                  expect.(bid);
              if b.Block.size > 1 && Region.node_id r (a + 1) <> -1 then
                fail "mid-block address %s has a node" (Addr.to_string (a + 1)))
            program;
          if Region.node_id r Addr.none <> -1 then fail "Addr.none has a node";
          Array.iter (fun (b : Block.t) -> expect.(Program.block_id program b.Block.start) <- -1)
            r.Region.node_blocks;
          let aux = ref [] in
          Region.iter_aux_entries (fun bid -> aux := Region.node_of_block_id r bid :: !aux) r;
          n_aux := !n_aux + List.length !aux;
          let dispatchable =
            List.filter (fun i -> r.Region.node_is_entry.(i)) (List.init r.Region.n_nodes Fun.id)
          in
          if dispatchable <> 0 :: List.sort compare !aux then
            fail "dispatchable nodes are not the entry and the aux entries";
          if !aux <> [] && r.Region.kind <> Region.Method then fail "aux entries outside a method";
          let saved = saved_ints (Region.save r) in
          let loaded =
            Region.load ~program ~line_bytes:Params.default.Params.icache_line_bytes
              (reader_of_ints saved)
          in
          if saved_ints (Region.save loaded) <> saved then fail "save -> load -> save differs")
        (Code_cache.all_regions result.Simulator.ctx.Context.cache))
    (Suite.grid Policies.all);
  check_true "regions were selected" (!n_regions > 0);
  check_true "method regions with aux entries were checked" (!n_aux > 0)

let suite =
  [
    case "layout hint ordering" layout_hint_ordering;
    case "entry first even when hinted late" entry_first_even_when_hinted_late;
    case "offsets before and after install" offsets_before_and_after_install;
    case "edge queries agree" edge_queries_agree;
    case "wide region uses multiword rows" wide_region_uses_multiword_rows;
    case "block translation requires program" block_translation_requires_program;
    case "duplicate nodes deduped" duplicate_nodes_deduped;
    case "malformed specs fail in check order" malformed_specs_fail_in_check_order;
    case "entry listed as aux is dropped" entry_listed_as_aux_is_dropped;
    case "exit slots match per-exit bumps" exit_slots_match_per_exit_bumps;
    case "load checks copied_insts" load_checks_copied_insts;
    case "every selected region compiles" every_selected_region_compiles;
  ]
