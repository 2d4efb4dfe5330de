open Regionsel_isa

type kind = Trace | Combined | Method

type path = { blocks : Block.t list; final_next : Addr.t option }

let path_insts path = List.fold_left (fun acc b -> acc + b.Block.size) 0 path.blocks

type spec = {
  entry : Addr.t;
  nodes : Block.t list;
  edges : (Addr.t * Addr.t) list;
  kind : kind;
  aux_entries : Addr.t list;
  layout_hint : Addr.t list;
}

let compare_edge (s1, d1) (s2, d2) =
  let c = Int.compare s1 s2 in
  if c <> 0 then c else Int.compare d1 d2

let spec_of_path ~kind path =
  match path.blocks with
  | [] -> invalid_arg "Region.spec_of_path: empty path"
  | first :: _ ->
    let entry = first.Block.start in
    let nodes, node_set =
      List.fold_left
        (fun ((nodes, seen) as acc) (b : Block.t) ->
          if Addr.Set.mem b.Block.start seen then acc
          else (b :: nodes, Addr.Set.add b.Block.start seen))
        ([], Addr.Set.empty) path.blocks
    in
    let rec consecutive acc = function
      | a :: (b :: _ as rest) -> consecutive ((a.Block.start, b.Block.start) :: acc) rest
      | [ last ] ->
        (* Close the region when execution continued to a block of the path:
           the spanned-cycle case when that block is the entry. *)
        (match path.final_next with
        | Some next when Addr.Set.mem next node_set -> (last.Block.start, next) :: acc
        | Some _ | None -> acc)
      | [] -> acc
    in
    let edges = List.sort_uniq compare_edge (consecutive [] path.blocks) in
    let nodes = List.rev nodes in
    let layout_hint = List.map (fun (b : Block.t) -> b.Block.start) nodes in
    { entry; nodes; edges; kind; aux_entries = []; layout_hint }

(* The compiled automaton: nodes are numbered 0..n-1 in cache layout order
   (the entry is always node 0), and every structure the hot loop touches
   is a flat array indexed by node id.  [node_of_block] is the one index
   from blocks to nodes; the address-keyed API below goes through
   [Program.block_id] to it for cold callers (metrics, emitter, tests). *)
type t = {
  id : int;
  entry : Addr.t;
  kind : kind;
  program : Program.t;
  n_nodes : int;
  node_blocks : Block.t array;  (* node id -> block, in layout order *)
  node_offsets : int array;  (* node id -> byte offset within the region *)
  node_is_entry : bool array;  (* node id -> dispatchable entry (entry or aux) *)
  succ_bits : int array;  (* adjacency bitset: row [src * succ_stride], 32-bit words *)
  succ_stride : int;
  hot_succ_addr : int array;  (* node id -> first internal successor address, -1 if none *)
  hot_succ_node : int array;  (* node id -> that successor's node id *)
  node_base : int;  (* smallest Program block_id among the nodes *)
  node_of_block : int array;  (* block_id - node_base -> node id, -1 elsewhere *)
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
  exit_succ : int array;  (* [node * 2 + taken] -> static successor address, -1 if dynamic *)
  exit_pending : int array;  (* exits per [exit_succ] slot not yet in [exit_log]; -1 = key absent *)
  mutable cache_base : int;
  mutable node_lines : int array;  (* [node * 2] first, [node * 2 + 1] last icache line *)
}

let pack_edge ~src ~dst = (src lsl 32) lor dst

let inst_bytes = 4
let stub_bytes = 10

let[@inline] succ_bit bits stride ~src ~dst =
  Array.unsafe_get bits ((src * stride) + (dst lsr 5)) land (1 lsl (dst land 31)) <> 0

(* [internal node dst]: whether the node has an internal edge to [dst]. *)
let count_stubs ~internal node_blocks =
  let stub_count i (b : Block.t) =
    match b.Block.term with
    | Terminator.Cond tgt ->
      (if internal i tgt then 0 else 1) + if internal i (Block.fall_addr b) then 0 else 1
    | Terminator.Jump tgt | Terminator.Call tgt -> if internal i tgt then 0 else 1
    | Terminator.Fallthrough -> if internal i (Block.fall_addr b) then 0 else 1
    | Terminator.Return | Terminator.Indirect_jump | Terminator.Indirect_call ->
      (* Predicted targets may be internal edges, but the mispredict path
         always needs a stub. *)
      1
    | Terminator.Halt -> 0
  in
  let n = ref 0 in
  Array.iteri (fun i b -> n := !n + stub_count i b) node_blocks;
  !n

let of_spec ~id ~selected_at ~program spec =
  let spec_nodes = Array.of_list spec.nodes in
  let spec_bids =
    Array.map (fun (b : Block.t) -> Program.block_id program b.Block.start) spec_nodes
  in
  (* The translation covers the span of the nodes' block ids (a region has
     a few nodes; a program-sized table per region would be most of what a
     run allocates on the major heap).  It first numbers the distinct
     nodes in spec order — first occurrence wins, since LEI's cyclic paths
     may revisit — and is renumbered into layout order below.  Nodes that
     are not block starts of the program ([strays]) make the spec
     malformed, but only after the entry, edge and aux checks. *)
  let lo, hi =
    Array.fold_left
      (fun (lo, hi) bid -> if bid < 0 then (lo, hi) else (min lo bid, max hi bid))
      (max_int, -1) spec_bids
  in
  let node_base = if hi < 0 then 0 else lo in
  let node_of_block = Array.make (hi - node_base + 1) (-1) in
  let firsts = ref [] and n = ref 0 and strays = ref [] in
  Array.iteri
    (fun i bid ->
      if bid < 0 then strays := spec_nodes.(i) :: !strays
      else if node_of_block.(bid - node_base) < 0 then begin
        node_of_block.(bid - node_base) <- !n;
        incr n;
        firsts := i :: !firsts
      end)
    spec_bids;
  let node_of a =
    let k = Program.block_id program a - node_base in
    if k >= 0 && k < Array.length node_of_block then node_of_block.(k) else -1
  in
  let is_node a =
    node_of a >= 0 || List.exists (fun (b : Block.t) -> Addr.equal b.Block.start a) !strays
  in
  if not (is_node spec.entry) then invalid_arg "Region.of_spec: entry is not a node";
  List.iter
    (fun (src, dst) ->
      if not (is_node src && is_node dst) then
        invalid_arg "Region.of_spec: edge endpoint is not a node")
    spec.edges;
  List.iter
    (fun a -> if not (is_node a) then invalid_arg "Region.of_spec: aux entry is not a node")
    spec.aux_entries;
  (match !strays with
  | [] -> ()
  | first :: _ as strays ->
    (* Name the stray that the layout below would place first. *)
    let rank (b : Block.t) =
      let a = b.Block.start in
      if Addr.equal a spec.entry then (-1, 0)
      else
        match List.find_index (Addr.equal a) spec.layout_hint with
        | Some i -> (0, i)
        | None -> (1, a)
    in
    let stray = List.fold_left (fun s b -> if rank b < rank s then b else s) first strays in
    invalid_arg
      (Printf.sprintf "Region.of_spec: node %s is not a block start of the program"
         (Addr.to_string stray.Block.start)));
  (* Lay the blocks out contiguously: the entry first, then the layout
     hint's order (first listing wins), then any remaining nodes in address
     order.  Layout order IS the node numbering, so the entry is always
     node 0.  Block starts are non-negative, so one int ranks all three. *)
  let n = !n and n_hint = List.length spec.layout_hint in
  let firsts = Array.of_list (List.rev !firsts) in
  let rank = Array.map (fun i -> n_hint + spec_nodes.(i).Block.start) firsts in
  List.iteri
    (fun i a ->
      let k = node_of a in
      if k >= 0 && rank.(k) >= n_hint then rank.(k) <- i)
    spec.layout_hint;
  rank.(node_of spec.entry) <- -1;
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Int.compare rank.(a) rank.(b)) order;
  let node_blocks = Array.map (fun k -> spec_nodes.(firsts.(k))) order in
  Array.iteri (fun i k -> node_of_block.(spec_bids.(firsts.(k)) - node_base) <- i) order;
  let node_offsets = Array.make n 0 in
  let cursor = ref 0 in
  Array.iteri
    (fun i (b : Block.t) ->
      node_offsets.(i) <- !cursor;
      cursor := !cursor + (b.Block.size * inst_bytes))
    node_blocks;
  let node_is_entry = Array.make n false in
  node_is_entry.(0) <- true;
  List.iter (fun a -> node_is_entry.(node_of a) <- true) spec.aux_entries;
  let succ_stride = (n + 31) lsr 5 in
  let succ_bits = Array.make (max 1 (n * succ_stride)) 0 in
  let hot_succ_addr = Array.make n (-1) in
  let hot_succ_node = Array.make n (-1) in
  List.iter
    (fun (src, dst) ->
      let s = node_of src in
      let d = node_of dst in
      let w = (s * succ_stride) + (d lsr 5) in
      succ_bits.(w) <- succ_bits.(w) lor (1 lsl (d land 31));
      if hot_succ_addr.(s) < 0 then begin
        hot_succ_addr.(s) <- dst;
        hot_succ_node.(s) <- d
      end)
    spec.edges;
  let n_stubs =
    count_stubs node_blocks ~internal:(fun s dst ->
        let d = node_of dst in
        d >= 0 && succ_bit succ_bits succ_stride ~src:s ~dst:d)
  in
  (* A block revisited within one path (possible for LEI's cyclic paths)
     is stored once: the region is an automaton over distinct blocks, so
     its cache footprint counts each selected block once.  Cross-region
     duplication — the paper's code-expansion signal — is unaffected. *)
  let copied_insts = Array.fold_left (fun acc (b : Block.t) -> acc + b.Block.size) 0 node_blocks in
  {
    id;
    entry = spec.entry;
    kind = spec.kind;
    program;
    n_nodes = n;
    node_blocks;
    node_offsets;
    node_is_entry;
    succ_bits;
    succ_stride;
    hot_succ_addr;
    hot_succ_node;
    node_base;
    node_of_block;
    link_base = 0;
    link_slots = [||];
    copied_insts;
    n_stubs;
    spans_cycle = List.exists (fun (_, dst) -> Addr.equal dst spec.entry) spec.edges;
    selected_at;
    entries = 0;
    cycle_iters = 0;
    exits = 0;
    insts_executed = 0;
    exit_log = Flat_tbl.create 8;
    exit_succ =
      Array.init (2 * n) (fun slot ->
          Block.static_succ node_blocks.(slot lsr 1) ~taken:(slot land 1 = 1));
    exit_pending = Array.make (2 * n) (-1);
    cache_base = -1;
    node_lines = [||];
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
    program = Program.of_blocks_exn ~entry:0 [ Block.make ~start:0 ~size:1 ~term:Terminator.Halt ];
    n_nodes = 0;
    node_blocks = [||];
    node_offsets = [||];
    node_is_entry = [||];
    succ_bits = [||];
    succ_stride = 0;
    hot_succ_addr = [||];
    hot_succ_node = [||];
    node_base = 0;
    node_of_block = [||];
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
    exit_succ = [||];
    exit_pending = [||];
    cache_base = -1;
    node_lines = [||];
  }

let[@inline] node_of_block_id t id =
  let k = id - t.node_base and translate = t.node_of_block in
  if k >= 0 && k < Array.length translate then Array.unsafe_get translate k else -1

let node_id t a = node_of_block_id t (Program.block_id t.program a)

let[@inline] has_edge_nodes t ~src ~dst = succ_bit t.succ_bits t.succ_stride ~src ~dst

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

let record_run t ~insts ~cycles =
  t.insts_executed <- t.insts_executed + insts;
  t.cycle_iters <- t.cycle_iters + cycles

let record_exit t ~from ~tgt =
  t.exits <- t.exits + 1;
  Flat_tbl.bump t.exit_log (pack_edge ~src:from ~dst:tgt)

(* An exit along a direction whose target the terminator names is counted
   in its [(node, taken)] slot.  Only the slot's first exit touches
   [exit_log], so the log's keys arrive in the order per-exit bumps would
   insert them; the counts wait in [exit_pending] until [sync_exits]. *)
let[@inline] record_exit_at t ~node ~taken ~from ~tgt =
  let slot = (node lsl 1) lor Bool.to_int taken in
  if Array.unsafe_get t.exit_succ slot = tgt then begin
    t.exits <- t.exits + 1;
    let c = Array.unsafe_get t.exit_pending slot in
    if c >= 0 then Array.unsafe_set t.exit_pending slot (c + 1)
    else begin
      Flat_tbl.bump t.exit_log (pack_edge ~src:from ~dst:tgt);
      Array.unsafe_set t.exit_pending slot 0
    end
  end
  else record_exit t ~from ~tgt

let sync_exits t =
  let pending = t.exit_pending in
  for slot = 0 to Array.length pending - 1 do
    let c = Array.unsafe_get pending slot in
    if c > 0 then begin
      let from = t.node_blocks.(slot lsr 1).Block.start in
      ignore
        (Flat_tbl.add_fresh t.exit_log (pack_edge ~src:from ~dst:t.exit_succ.(slot)) c : bool);
      pending.(slot) <- 0
    end
  done

let fold_exits f t init =
  sync_exits t;
  Flat_tbl.fold f t.exit_log init

let exit_src key = key lsr 32
let exit_tgt key = key land 0xFFFF_FFFF

let exit_targets t =
  fold_exits (fun key _ acc -> Addr.Set.add (exit_tgt key) acc) t Addr.Set.empty

let exited_to t ~tgt =
  fold_exits
    (fun key _ acc ->
      if Addr.equal tgt (exit_tgt key) then Addr.Set.add (exit_src key) acc else acc)
    t Addr.Set.empty

let cache_bytes t = (t.copied_insts * inst_bytes) + (t.n_stubs * stub_bytes)

(* Each node's line span is fixed once the region has an address, so it
   is computed here, once, rather than per cached step. *)
let set_cache_base t ~line_bytes base =
  if line_bytes <= 0 then invalid_arg "Region.set_cache_base: line_bytes must be positive";
  t.cache_base <- base;
  t.node_lines <-
    (if base < 0 then [||]
     else
       Array.init (2 * t.n_nodes) (fun i ->
           let node = i lsr 1 in
           let addr = base + t.node_offsets.(node) in
           let addr =
             if i land 1 = 0 then addr
             else addr + (t.node_blocks.(node).Block.size * inst_bytes) - 1
           in
           addr / line_bytes))

let block_offset t a =
  let i = node_id t a in
  if i < 0 then -1 else Array.unsafe_get t.node_offsets i

let block_cache_addr t a =
  if t.cache_base < 0 then None
  else
    let off = block_offset t a in
    if off < 0 then None else Some (t.cache_base + off)

(* The aux entries are the dispatchable nodes other than the entry; the
   translation visits them by ascending block id, which is ascending
   address. *)
let iter_aux_entries f t =
  let translate = t.node_of_block in
  for k = 0 to Array.length translate - 1 do
    let node = translate.(k) in
    if node > 0 && t.node_is_entry.(node) then f (t.node_base + k)
  done

let n_link_slots t = Program.n_blocks t.program

let[@inline] link_target t slot =
  let k = slot - t.link_base and ls = t.link_slots in
  if k >= 0 && k < Array.length ls then Array.unsafe_get ls k else None

let set_link t ~slot target =
  if slot < 0 || slot >= n_link_slots t then invalid_arg "Region.set_link: slot out of range";
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
  let n_aux = ref 0 in
  iter_aux_entries (fun _ -> incr n_aux) t;
  emit !n_aux;
  iter_aux_entries (fun bid -> emit (Program.block_of_id t.program bid).Block.start) t;
  emit t.entries;
  emit t.cycle_iters;
  emit t.exits;
  emit t.insts_executed;
  sync_exits t;
  emit (Flat_tbl.length t.exit_log);
  List.iter
    (fun (key, count) ->
      emit key;
      emit count)
    (Flat_tbl.sorted_pairs t.exit_log);
  emit t.cache_base

let load ~program ~line_bytes read =
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
      kind;
      aux_entries;
      layout_hint = Array.to_list node_addrs;
    }
  in
  let t = of_spec ~id ~selected_at ~program spec in
  if t.copied_insts <> copied_insts then
    failwith "Region.load: copied_insts does not match the nodes' sizes";
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
  (* A slot whose key is already logged counts its next exit as pending. *)
  Array.iteri
    (fun slot tgt ->
      if
        tgt >= 0
        && Flat_tbl.mem t.exit_log
             (pack_edge ~src:t.node_blocks.(slot lsr 1).Block.start ~dst:tgt)
      then t.exit_pending.(slot) <- 0)
    t.exit_succ;
  set_cache_base t ~line_bytes (read ());
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
