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
    copied_insts = List.fold_left (fun acc (b : Block.t) -> acc + b.Block.size) 0 nodes;
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
  let r = Region.of_spec ~id:0 ~selected_at:0 (spec ~entry:32 ~hint:[ 48; 16 ] nodes) in
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
  let r = Region.of_spec ~id:0 ~selected_at:0 (spec ~entry:0 ~hint:[ 16; 0 ] nodes) in
  check_starts "entry stays first" [ 0; 16 ] (starts r);
  check_true "entry node is dispatchable" r.Region.node_is_entry.(0);
  check_true "interior node is not" (not r.Region.node_is_entry.(1))

let offsets_before_and_after_install () =
  let nodes = [ mk 0 2 Terminator.Return; mk 16 3 Terminator.Return ] in
  let r = Region.of_spec ~id:0 ~selected_at:0 (spec ~entry:0 nodes) in
  (* Layout offsets exist independently of installation... *)
  check_int "entry at offset 0" 0 (Region.block_offset r 0);
  check_int "second block follows the entry's copy" (2 * Region.inst_bytes)
    (Region.block_offset r 16);
  check_int "non-node offset is -1" (-1) (Region.block_offset r 100);
  (* ...but cache addresses do not exist until the cache places the region. *)
  check_true "no cache addr before install" (Region.block_cache_addr r 16 = None);
  Region.set_cache_base r 1_000;
  check_true "cache addr after install"
    (Region.block_cache_addr r 16 = Some (1_000 + (2 * Region.inst_bytes)));
  check_true "entry cache addr after install" (Region.block_cache_addr r 0 = Some 1_000);
  check_true "non-node still has no cache addr" (Region.block_cache_addr r 100 = None)

let edge_queries_agree () =
  let nodes = [ mk 0 2 Terminator.Return; mk 16 3 Terminator.Return;
                mk 32 4 Terminator.Return ] in
  let edges = [ 0, 16; 16, 32; 32, 0; 0, 32 ] in
  let r = Region.of_spec ~id:0 ~selected_at:0 (spec ~entry:0 ~edges nodes) in
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
  let r = Region.of_spec ~id:0 ~selected_at:0 (spec ~entry:0 ~edges nodes) in
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
  (* Without the program the dense structures are absent, not sized 0..n. *)
  let bare = Region.of_spec ~id:1 ~selected_at:1 s in
  check_int "no link slots without program" 0 (Region.n_link_slots bare);
  check_int "no translation without program" 0 (Array.length bare.Region.node_of_block);
  check_true "out-of-range link query is None" (Region.link_target bare 0 = None)

let duplicate_nodes_deduped () =
  (* A spec listing a block twice compiles it once; node count and layout
     reflect the distinct set. *)
  let b0 = mk 0 2 Terminator.Return and b1 = mk 16 3 Terminator.Return in
  let r = Region.of_spec ~id:0 ~selected_at:0 (spec ~entry:0 [ b0; b1; b0 ]) in
  check_int "distinct nodes only" 2 r.Region.n_nodes;
  check_starts "each block placed once" [ 0; 16 ] (starts r)

let suite =
  [
    case "layout hint ordering" layout_hint_ordering;
    case "entry first even when hinted late" entry_first_even_when_hinted_late;
    case "offsets before and after install" offsets_before_and_after_install;
    case "edge queries agree" edge_queries_agree;
    case "wide region uses multiword rows" wide_region_uses_multiword_rows;
    case "block translation requires program" block_translation_requires_program;
    case "duplicate nodes deduped" duplicate_nodes_deduped;
  ]
