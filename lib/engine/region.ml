open Regionsel_isa

type kind = Trace | Combined | Method

type path = { blocks : Block.t list; final_next : Addr.t option }

let path_insts path = List.fold_left (fun acc b -> acc + b.Block.size) 0 path.blocks

type spec = {
  entry : Addr.t;
  nodes : Block.t list;
  edges : (Addr.t * Addr.t) list;
  copied_insts : int;
  kind : kind;
  aux_entries : Addr.t list;
  layout_hint : Addr.t list;
}

let spec_of_path ~kind path =
  match path.blocks with
  | [] -> invalid_arg "Region.spec_of_path: empty path"
  | first :: _ ->
    let entry = first.Block.start in
    let nodes = ref [] in
    let node_set = Addr.Table.create 16 in
    List.iter
      (fun b ->
        if not (Addr.Table.mem node_set b.Block.start) then begin
          Addr.Table.replace node_set b.Block.start ();
          nodes := b :: !nodes
        end)
      path.blocks;
    let rec consecutive acc = function
      | a :: (b :: _ as rest) -> consecutive ((a.Block.start, b.Block.start) :: acc) rest
      | [ last ] ->
        (* Close the region when execution continued to a block of the path:
           the spanned-cycle case when that block is the entry. *)
        (match path.final_next with
        | Some next when Addr.Table.mem node_set next -> (last.Block.start, next) :: acc
        | Some _ | None -> acc)
      | [] -> acc
    in
    let edges = List.sort_uniq compare (consecutive [] path.blocks) in
    let nodes = List.rev !nodes in
    let layout_hint = List.map (fun (b : Block.t) -> b.Block.start) nodes in
    (* A block revisited within one path (possible for LEI's cyclic paths)
       is stored once: the region is an automaton over distinct blocks, so
       its cache footprint counts each selected block once.  Cross-region
       duplication — the paper's code-expansion signal — is unaffected. *)
    let copied_insts = List.fold_left (fun acc (b : Block.t) -> acc + b.Block.size) 0 nodes in
    { entry; nodes; edges; copied_insts; kind; aux_entries = []; layout_hint }

(* The compiled automaton: nodes are numbered 0..n-1 in cache layout order
   (the entry is always node 0), and every structure the hot loop touches
   is a flat array indexed by node id.  The address-keyed API below is
   reimplemented on top via [node_by_addr] for cold callers (metrics,
   emitter, tests). *)
type t = {
  id : int;
  entry : Addr.t;
  kind : kind;
  n_nodes : int;
  node_blocks : Block.t array;  (* node id -> block, in layout order *)
  node_offsets : int array;  (* node id -> byte offset within the region *)
  node_is_entry : bool array;  (* node id -> dispatchable entry (entry or aux) *)
  succ_bits : int array;  (* adjacency bitset: row [src * succ_stride], 32-bit words *)
  succ_stride : int;
  hot_succ_addr : int array;  (* node id -> first internal successor address, -1 if none *)
  hot_succ_node : int array;  (* node id -> that successor's node id *)
  node_by_addr : Flat_tbl.t;  (* block start address -> node id *)
  node_base : int;  (* smallest Program block_id among the nodes *)
  node_of_block : int array;  (* block_id - node_base -> node id, -1 elsewhere; [||] without program *)
  n_link_slots : int;  (* Program block count; 0 without program *)
  mutable link_base : int;
  mutable link_slots : t option array;  (* slot - link_base -> linked exit target *)
  copied_insts : int;
  n_stubs : int;
  spans_cycle : bool;
  selected_at : int;
  mutable entries : int;
  mutable cycle_iters : int;
  mutable exits : int;
  mutable insts_executed : int;
  exit_log : Flat_tbl.t; (* key [(from lsl 32) lor tgt] -> count *)
  aux_entries : Addr.Set.t;
  mutable cache_base : int;
}

let pack_edge ~src ~dst = (src lsl 32) lor dst

let inst_bytes = 4
let stub_bytes = 10

let count_stubs ~edge_index nodes =
  let internal src dst = Flat_tbl.mem edge_index (pack_edge ~src ~dst) in
  let stub_count b =
    let s = b.Block.start in
    match b.Block.term with
    | Terminator.Cond tgt ->
      (if internal s tgt then 0 else 1) + if internal s (Block.fall_addr b) then 0 else 1
    | Terminator.Jump tgt | Terminator.Call tgt -> if internal s tgt then 0 else 1
    | Terminator.Fallthrough -> if internal s (Block.fall_addr b) then 0 else 1
    | Terminator.Return | Terminator.Indirect_jump | Terminator.Indirect_call ->
      (* Predicted targets may be internal edges, but the mispredict path
         always needs a stub. *)
      1
    | Terminator.Halt -> 0
  in
  List.fold_left (fun acc b -> acc + stub_count b) 0 nodes

let of_spec ~id ~selected_at ?program spec =
  (* Distinct nodes, first occurrence wins (LEI's cyclic paths may revisit). *)
  let seen = Flat_tbl.create (List.length spec.nodes * 2) in
  let nodes =
    List.filter
      (fun (b : Block.t) ->
        if Flat_tbl.mem seen b.Block.start then false
        else begin
          Flat_tbl.set seen b.Block.start 0;
          true
        end)
      spec.nodes
  in
  if not (Flat_tbl.mem seen spec.entry) then invalid_arg "Region.of_spec: entry is not a node";
  let edge_index = Flat_tbl.create (List.length spec.edges * 2) in
  List.iter
    (fun (src, dst) ->
      if not (Flat_tbl.mem seen src && Flat_tbl.mem seen dst) then
        invalid_arg "Region.of_spec: edge endpoint is not a node";
      Flat_tbl.set edge_index (pack_edge ~src ~dst) 1)
    spec.edges;
  List.iter
    (fun a ->
      if not (Flat_tbl.mem seen a) then invalid_arg "Region.of_spec: aux entry is not a node")
    spec.aux_entries;
  let spans_cycle = List.exists (fun (_, dst) -> Addr.equal dst spec.entry) spec.edges in
  let n_stubs = count_stubs ~edge_index nodes in
  (* Lay the blocks out contiguously: the entry first, then the layout
     hint's order, then any remaining nodes in address order.  Layout order
     IS the node numbering, so the entry is always node 0. *)
  let hint_rank = Addr.Table.create 16 in
  List.iteri
    (fun i a -> if not (Addr.Table.mem hint_rank a) then Addr.Table.replace hint_rank a i)
    spec.layout_hint;
  let sorted_nodes =
    List.sort
      (fun (a : Block.t) (b : Block.t) ->
        let rank (x : Block.t) =
          if Addr.equal x.Block.start spec.entry then (-1, 0)
          else
            match Addr.Table.find_opt hint_rank x.Block.start with
            | Some i -> (0, i)
            | None -> (1, x.Block.start)
        in
        compare (rank a) (rank b))
      nodes
  in
  let node_blocks = Array.of_list sorted_nodes in
  let n = Array.length node_blocks in
  let node_offsets = Array.make n 0 in
  let node_by_addr = Flat_tbl.create (n * 2) in
  let cursor = ref 0 in
  Array.iteri
    (fun i (b : Block.t) ->
      node_offsets.(i) <- !cursor;
      cursor := !cursor + (b.Block.size * inst_bytes);
      Flat_tbl.set node_by_addr b.Block.start i)
    node_blocks;
  let aux_entries = Addr.Set.of_list spec.aux_entries in
  let node_is_entry =
    Array.map
      (fun (b : Block.t) ->
        Addr.equal b.Block.start spec.entry || Addr.Set.mem b.Block.start aux_entries)
      node_blocks
  in
  let succ_stride = (n + 31) lsr 5 in
  let succ_bits = Array.make (max 1 (n * succ_stride)) 0 in
  let hot_succ_addr = Array.make n (-1) in
  let hot_succ_node = Array.make n (-1) in
  List.iter
    (fun (src, dst) ->
      let s = Flat_tbl.find node_by_addr src in
      let d = Flat_tbl.find node_by_addr dst in
      let w = (s * succ_stride) + (d lsr 5) in
      succ_bits.(w) <- succ_bits.(w) lor (1 lsl (d land 31));
      if hot_succ_addr.(s) < 0 then begin
        hot_succ_addr.(s) <- dst;
        hot_succ_node.(s) <- d
      end)
    spec.edges;
  (* Both block-indexed tables cover only the ids they need: the
     translation the span of the nodes' ids, the link slots the span of
     the linked ones (grown by [set_link]).  A region has a few nodes and
     links; two program-sized tables per region would be most of what a
     run allocates on the major heap. *)
  let node_base, node_of_block, n_link_slots =
    match program with
    | None -> (0, [||], 0)
    | Some p ->
      let lo = ref max_int and hi = ref (-1) in
      Array.iter
        (fun (b : Block.t) ->
          let bid = Program.block_id p b.Block.start in
          if bid >= 0 then begin
            lo := min !lo bid;
            hi := max !hi bid
          end)
        node_blocks;
      let base = if !hi < 0 then 0 else !lo in
      let translate = Array.make (max 0 (!hi - base + 1)) (-1) in
      Array.iteri
        (fun i (b : Block.t) ->
          let bid = Program.block_id p b.Block.start in
          if bid >= 0 then translate.(bid - base) <- i)
        node_blocks;
      (base, translate, max 1 (Program.n_blocks p))
  in
  {
    id;
    entry = spec.entry;
    kind = spec.kind;
    n_nodes = n;
    node_blocks;
    node_offsets;
    node_is_entry;
    succ_bits;
    succ_stride;
    hot_succ_addr;
    hot_succ_node;
    node_by_addr;
    node_base;
    node_of_block;
    n_link_slots;
    link_base = 0;
    link_slots = [||];
    copied_insts = spec.copied_insts;
    n_stubs;
    spans_cycle;
    selected_at;
    entries = 0;
    cycle_iters = 0;
    exits = 0;
    insts_executed = 0;
    exit_log = Flat_tbl.create 8;
    aux_entries;
    cache_base = -1;
  }

(* A sentinel for "no region": the simulator's current-region cell is a
   plain [t ref] compared by physical equality, so staying in or leaving
   region mode never allocates an option constructor.  Never executed —
   nothing reads its (empty) fields. *)
let dummy =
  {
    id = -1;
    entry = Addr.none;
    kind = Trace;
    n_nodes = 0;
    node_blocks = [||];
    node_offsets = [||];
    node_is_entry = [||];
    succ_bits = [||];
    succ_stride = 0;
    hot_succ_addr = [||];
    hot_succ_node = [||];
    node_by_addr = Flat_tbl.create 1;
    node_base = 0;
    node_of_block = [||];
    n_link_slots = 0;
    link_base = 0;
    link_slots = [||];
    copied_insts = 0;
    n_stubs = 0;
    spans_cycle = false;
    selected_at = 0;
    entries = 0;
    cycle_iters = 0;
    exits = 0;
    insts_executed = 0;
    exit_log = Flat_tbl.create 1;
    aux_entries = Addr.Set.empty;
    cache_base = -1;
  }

let node_id t a = if a < 0 then -1 else Flat_tbl.find t.node_by_addr a

let has_edge_nodes t ~src ~dst =
  Array.unsafe_get t.succ_bits ((src * t.succ_stride) + (dst lsr 5)) land (1 lsl (dst land 31))
  <> 0

let has_edge t ~src ~dst =
  let s = node_id t src in
  s >= 0
  &&
  let d = node_id t dst in
  d >= 0 && has_edge_nodes t ~src:s ~dst:d

let mem_block t a = node_id t a >= 0

let nodes t =
  List.sort
    (fun (a : Block.t) (b : Block.t) -> Addr.compare a.Block.start b.Block.start)
    (Array.to_list t.node_blocks)

let layout_blocks t = Array.to_list t.node_blocks

let record_entry t = t.entries <- t.entries + 1
let record_cycle t = t.cycle_iters <- t.cycle_iters + 1
let record_exec t n = t.insts_executed <- t.insts_executed + n

let record_exit t ~from ~tgt =
  t.exits <- t.exits + 1;
  Flat_tbl.bump t.exit_log (pack_edge ~src:from ~dst:tgt)

let exit_src key = key lsr 32
let exit_tgt key = key land 0xFFFF_FFFF

let exit_targets t =
  Flat_tbl.fold (fun key _ acc -> Addr.Set.add (exit_tgt key) acc) t.exit_log Addr.Set.empty

let exited_to t ~tgt =
  Flat_tbl.fold
    (fun key _ acc ->
      if Addr.equal tgt (exit_tgt key) then Addr.Set.add (exit_src key) acc else acc)
    t.exit_log Addr.Set.empty

let cache_bytes t = (t.copied_insts * inst_bytes) + (t.n_stubs * stub_bytes)

let set_cache_base t base = t.cache_base <- base

let block_offset t a =
  let i = node_id t a in
  if i < 0 then -1 else Array.unsafe_get t.node_offsets i

let block_cache_addr t a =
  if t.cache_base < 0 then None
  else
    let off = block_offset t a in
    if off < 0 then None else Some (t.cache_base + off)

let node_of_block_id t id =
  let k = id - t.node_base and translate = t.node_of_block in
  if k >= 0 && k < Array.length translate then Array.unsafe_get translate k else -1

let n_link_slots t = t.n_link_slots

let link_target t slot =
  let k = slot - t.link_base and ls = t.link_slots in
  if k >= 0 && k < Array.length ls then Array.unsafe_get ls k else None

let set_link t ~slot target =
  if slot < 0 || slot >= t.n_link_slots then invalid_arg "Region.set_link: slot out of range";
  let k = slot - t.link_base and ls = t.link_slots in
  if k >= 0 && k < Array.length ls then ls.(k) <- target
  else
    match target with
    | None -> ()
    | Some _ ->
      let n = Array.length ls in
      let lo = if n = 0 then slot else min t.link_base slot in
      let hi = if n = 0 then slot else max (t.link_base + n - 1) slot in
      let grown = Array.make (hi - lo + 1) None in
      if n > 0 then Array.blit ls 0 grown (t.link_base - lo) n;
      grown.(slot - lo) <- target;
      t.link_base <- lo;
      t.link_slots <- grown

let clear_links t =
  let ls = t.link_slots in
  let cleared = ref 0 in
  for i = 0 to Array.length ls - 1 do
    match Array.unsafe_get ls i with
    | Some _ ->
      ls.(i) <- None;
      incr cleared
    | None -> ()
  done;
  !cleared

(* Checkpoint support.  A region is rebuilt through [of_spec] — the same
   constructor (and validation) installs use — so every derived structure
   (node numbering, offsets, adjacency bitset, stub count) is recomputed
   rather than trusted from the stream.  Two order-sensitive details are
   made explicit: the layout hint is the saved node order, so the rebuilt
   node numbering is identical; and each node's edges are emitted hot
   successor first, because [of_spec] takes the first listed edge per
   source as the compiled fall-through.  Link slots are not saved here —
   the code cache re-registers links after every region exists. *)

let save t emit =
  emit t.id;
  emit t.selected_at;
  emit (match t.kind with Trace -> 0 | Combined -> 1 | Method -> 2);
  emit t.n_nodes;
  Array.iter (fun (b : Block.t) -> emit b.Block.start) t.node_blocks;
  emit t.copied_insts;
  let edges = ref [] in
  let n_edges = ref 0 in
  for s = t.n_nodes - 1 downto 0 do
    let hot = t.hot_succ_node.(s) in
    let row = ref [] in
    for d = t.n_nodes - 1 downto 0 do
      if d <> hot && has_edge_nodes t ~src:s ~dst:d then row := d :: !row
    done;
    let row = if hot >= 0 then hot :: !row else !row in
    List.iter
      (fun d ->
        incr n_edges;
        edges := (s, d) :: !edges)
      (List.rev row)
  done;
  emit !n_edges;
  List.iter
    (fun (s, d) ->
      emit s;
      emit d)
    !edges;
  emit (Addr.Set.cardinal t.aux_entries);
  Addr.Set.iter emit t.aux_entries;
  emit t.entries;
  emit t.cycle_iters;
  emit t.exits;
  emit t.insts_executed;
  emit (Flat_tbl.length t.exit_log);
  List.iter
    (fun (key, count) ->
      emit key;
      emit count)
    (Flat_tbl.sorted_pairs t.exit_log);
  emit t.cache_base

let load ~program read =
  let id = read () in
  let selected_at = read () in
  let kind =
    match read () with
    | 0 -> Trace
    | 1 -> Combined
    | 2 -> Method
    | _ -> failwith "Region.load: bad kind tag"
  in
  let n = read () in
  if n < 1 then failwith "Region.load: node count out of range";
  let node_addrs = Array.init n (fun _ -> read ()) in
  let blocks =
    Array.map
      (fun a ->
        if not (Program.is_block_start program a) then
          failwith "Region.load: node is not a block start";
        Program.block_of_id program (Program.block_id program a))
      node_addrs
  in
  let copied_insts = read () in
  if copied_insts < 0 then failwith "Region.load: negative copied_insts";
  let n_edges = read () in
  if n_edges < 0 then failwith "Region.load: negative edge count";
  let edges =
    List.init n_edges (fun _ ->
        let s = read () in
        let d = read () in
        if s < 0 || s >= n || d < 0 || d >= n then failwith "Region.load: edge node out of range";
        (node_addrs.(s), node_addrs.(d)))
  in
  let n_aux = read () in
  if n_aux < 0 then failwith "Region.load: negative aux-entry count";
  let aux_entries = List.init n_aux (fun _ -> read ()) in
  let spec =
    {
      entry = node_addrs.(0);
      nodes = Array.to_list blocks;
      edges;
      copied_insts;
      kind;
      aux_entries;
      layout_hint = Array.to_list node_addrs;
    }
  in
  let t = of_spec ~id ~selected_at ~program spec in
  t.entries <- read ();
  t.cycle_iters <- read ();
  t.exits <- read ();
  t.insts_executed <- read ();
  let n_exits = read () in
  if n_exits < 0 then failwith "Region.load: negative exit-log length";
  for _ = 1 to n_exits do
    let key = read () in
    let count = read () in
    Flat_tbl.set t.exit_log key count
  done;
  t.cache_base <- read ();
  t

let pp ppf t =
  let kind =
    match t.kind with Trace -> "trace" | Combined -> "region" | Method -> "method"
  in
  Format.fprintf ppf "@[<v>%s #%d entry=%a (%d blocks, %d insts, %d stubs%s)" kind t.id Addr.pp
    t.entry t.n_nodes t.copied_insts t.n_stubs
    (if t.spans_cycle then ", cyclic" else "");
  List.iter (fun b -> Format.fprintf ppf "@,  %a" Block.pp b) (nodes t);
  Format.fprintf ppf "@]"
