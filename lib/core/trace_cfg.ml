open Regionsel_isa
module Region = Regionsel_engine.Region

(* Every per-block table is indexed by block id and sized to the program
   once; [nodes] lists the ids in use, so {!reset} clears only those.  A
   block is a node iff its occurrence count is positive: a block enters
   the CFG through a path, which counts it. *)
type t = {
  program : Program.t;
  mutable entry : Addr.t;
  occurrences : int array;
  marked : Id_set.t;
  succs : int list array; (* observed successor ids, ascending *)
  stamp : int array; (* the last [gen] whose path visited the block *)
  mutable gen : int;
  visited : Id_set.t; (* postorder scratch, empty between calls *)
  mutable nodes : int array; (* node ids in creation order; [n_nodes] used *)
  mutable n_nodes : int;
  mutable n_paths : int;
  mutable finals : (int * Addr.t) list;
      (** Final transfers of observed traces, source id and target,
          resolved to edges at [to_spec] time if the target survives
          pruning. *)
}

let create program ~entry =
  let n = Program.n_blocks program in
  {
    program;
    entry;
    occurrences = Array.make n 0;
    marked = Id_set.create n;
    succs = Array.make n [];
    stamp = Array.make n 0;
    gen = 0;
    visited = Id_set.create n;
    nodes = Array.make 16 0;
    n_nodes = 0;
    n_paths = 0;
    finals = [];
  }

let reset t ~entry =
  for i = 0 to t.n_nodes - 1 do
    let id = t.nodes.(i) in
    t.occurrences.(id) <- 0;
    t.succs.(id) <- [];
    Id_set.remove t.marked id
  done;
  t.entry <- entry;
  t.n_nodes <- 0;
  t.n_paths <- 0;
  t.finals <- []

let id_of t a = Program.block_id t.program a

let add_node t id =
  if t.n_nodes = Array.length t.nodes then begin
    let nodes = Array.make (2 * t.n_nodes) 0 in
    Array.blit t.nodes 0 nodes 0 t.n_nodes;
    t.nodes <- nodes
  end;
  t.nodes.(t.n_nodes) <- id;
  t.n_nodes <- t.n_nodes + 1

let rec insert_sorted x = function
  | [] -> [ x ]
  | y :: rest as l -> if x < y then x :: l else if x = y then l else y :: insert_sorted x rest

let add_path t (path : Region.path) =
  (match path.blocks with
  | [] -> invalid_arg "Trace_cfg.add_path: empty path"
  | first :: _ ->
    if not (Addr.equal first.Block.start t.entry) then
      invalid_arg "Trace_cfg.add_path: path does not start at the entry");
  t.n_paths <- t.n_paths + 1;
  t.gen <- t.gen + 1;
  let visit (b : Block.t) =
    let id = id_of t b.Block.start in
    if id < 0 then invalid_arg "Trace_cfg.add_path: block is not a block start";
    if t.occurrences.(id) = 0 then add_node t id;
    if t.stamp.(id) <> t.gen then begin
      t.stamp.(id) <- t.gen;
      t.occurrences.(id) <- t.occurrences.(id) + 1
    end;
    id
  in
  let rec go = function
    | [] -> ()
    | [ last ] -> (
      let id = visit last in
      match path.final_next with
      | Some a -> t.finals <- (id, a) :: t.finals
      | None -> ())
    | b :: (c :: _ as rest) ->
      let id = visit b in
      t.succs.(id) <- insert_sorted (id_of t c.Block.start) t.succs.(id);
      go rest
  in
  go path.blocks

let n_paths t = t.n_paths
let n_blocks t = t.n_nodes

let occurrences t a =
  let id = id_of t a in
  if id < 0 then 0 else t.occurrences.(id)

let mark_frequent t ~t_min =
  for i = 0 to t.n_nodes - 1 do
    let id = t.nodes.(i) in
    if t.occurrences.(id) >= t_min then Id_set.add t.marked id
  done

let is_marked t a = Id_set.mem t.marked (id_of t a)

(* Post-order over observed edges from the entry.  Visiting successors
   before predecessors lets a mark propagate through a whole acyclic chain
   in one pass (Section 4.2.3). *)
let postorder t =
  let order = ref [] in
  let rec dfs id =
    if not (Id_set.mem t.visited id) then begin
      Id_set.add t.visited id;
      List.iter dfs t.succs.(id);
      order := id :: !order
    end
  in
  let entry = id_of t t.entry in
  if entry >= 0 && t.occurrences.(entry) > 0 then dfs entry;
  (* Nodes unreachable from the entry along observed edges cannot be
     selected; they are pruned implicitly by never being marked frequent...
     but a frequent unreachable node would be an inconsistency, so include
     any stragglers at the end for safety. *)
  for i = 0 to t.n_nodes - 1 do
    let id = t.nodes.(i) in
    if not (Id_set.mem t.visited id) then order := id :: !order
  done;
  for i = 0 to t.n_nodes - 1 do
    Id_set.remove t.visited t.nodes.(i)
  done;
  List.rev !order

let mark_rejoining_paths t =
  let order = postorder t in
  let productive_passes = ref 0 in
  let continue = ref true in
  while !continue do
    let marked_any = ref false in
    List.iter
      (fun id ->
        if not (Id_set.mem t.marked id) then
          if List.exists (Id_set.mem t.marked) t.succs.(id) then begin
            Id_set.add t.marked id;
            marked_any := true
          end)
      order;
    if !marked_any then incr productive_passes else continue := false
  done;
  !productive_passes

let to_spec ?(layout = `Hot_first) t =
  if not (is_marked t t.entry) then invalid_arg "Trace_cfg.to_spec: entry is not marked";
  let surviving a = is_marked t a in
  let start id = (Program.block_of_id t.program id).Block.start in
  let nodes = ref [] in
  let edges = ref [] in
  let add_edge src dst = edges := (src, dst) :: !edges in
  for i = 0 to t.n_nodes - 1 do
    let id = t.nodes.(i) in
    if Id_set.mem t.marked id then begin
      let b = Program.block_of_id t.program id in
      let a = b.Block.start in
      nodes := b :: !nodes;
      List.iter (fun s -> if Id_set.mem t.marked s then add_edge a (start s)) t.succs.(id);
      (* Line 16 of Figure 13: a region exit that targets a block of the
         region becomes an edge.  For direct transfers the link is static. *)
      (match Terminator.static_target b.Block.term with
      | Some tgt when surviving tgt -> add_edge a tgt
      | Some _ | None -> ());
      if Terminator.can_fall_through b.Block.term then begin
        let fall = Block.fall_addr b in
        if surviving fall then add_edge a fall
      end
    end
  done;
  List.iter
    (fun (src, dst) -> if Id_set.mem t.marked src && surviving dst then add_edge (start src) dst)
    t.finals;
  let nodes = List.sort (fun a b -> Addr.compare a.Block.start b.Block.start) !nodes in
  let layout_hint =
    match layout with
    | `Address_order -> []
    | `Hot_first ->
      List.map
        (fun (b : Block.t) -> b.Block.start)
        (List.sort
           (fun (a : Block.t) (b : Block.t) ->
             let c = Int.compare (occurrences t b.Block.start) (occurrences t a.Block.start) in
             if c <> 0 then c else Addr.compare a.Block.start b.Block.start)
           nodes)
  in
  {
    Region.entry = t.entry;
    nodes;
    edges = List.sort_uniq Region.compare_edge !edges;
    kind = Region.Combined;
    aux_entries = [];
    layout_hint;
  }
