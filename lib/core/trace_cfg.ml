open Regionsel_isa
module Region = Regionsel_engine.Region

type node = {
  block : Block.t;
  mutable occurrences : int;
  mutable marked : bool;
  mutable succs : Addr.Set.t;
}

type t = {
  entry : Addr.t;
  nodes : node Addr.Table.t;
  mutable n_paths : int;
  mutable finals : (Addr.t * Addr.t) list;
      (** Final transfers of observed traces, resolved to edges at
          [to_spec] time if the target survives pruning. *)
}

let create ~entry = { entry; nodes = Addr.Table.create 64; n_paths = 0; finals = [] }

let node t block =
  match Addr.Table.find_opt t.nodes block.Block.start with
  | Some n -> n
  | None ->
    let n = { block; occurrences = 0; marked = false; succs = Addr.Set.empty } in
    Addr.Table.replace t.nodes block.Block.start n;
    n

let add_path t (path : Region.path) =
  (match path.blocks with
  | [] -> invalid_arg "Trace_cfg.add_path: empty path"
  | first :: _ ->
    if not (Addr.equal first.Block.start t.entry) then
      invalid_arg "Trace_cfg.add_path: path does not start at the entry");
  t.n_paths <- t.n_paths + 1;
  let seen = Addr.Table.create 16 in
  let visit b =
    let n = node t b in
    if not (Addr.Table.mem seen b.Block.start) then begin
      Addr.Table.replace seen b.Block.start ();
      n.occurrences <- n.occurrences + 1
    end;
    n
  in
  let rec go = function
    | [] -> ()
    | [ last ] -> (
      let n = visit last in
      match path.final_next with
      | Some a -> t.finals <- (n.block.Block.start, a) :: t.finals
      | None -> ())
    | b :: (c :: _ as rest) ->
      let n = visit b in
      n.succs <- Addr.Set.add c.Block.start n.succs;
      go rest
  in
  go path.blocks

let n_paths t = t.n_paths
let n_blocks t = Addr.Table.length t.nodes
let occurrences t a = match Addr.Table.find_opt t.nodes a with Some n -> n.occurrences | None -> 0

let mark_frequent t ~t_min =
  Addr.Table.iter (fun _ n -> if n.occurrences >= t_min then n.marked <- true) t.nodes

let is_marked t a = match Addr.Table.find_opt t.nodes a with Some n -> n.marked | None -> false

(* Post-order over observed edges from the entry.  Visiting successors
   before predecessors lets a mark propagate through a whole acyclic chain
   in one pass (Section 4.2.3). *)
let postorder t =
  let visited = Addr.Table.create (n_blocks t) in
  let order = ref [] in
  let rec dfs a =
    if not (Addr.Table.mem visited a) then begin
      Addr.Table.replace visited a ();
      (match Addr.Table.find_opt t.nodes a with
      | Some n ->
        Addr.Set.iter dfs n.succs;
        order := n :: !order
      | None -> ())
    end
  in
  dfs t.entry;
  (* Nodes unreachable from the entry along observed edges cannot be
     selected; they are pruned implicitly by never being marked frequent...
     but a frequent unreachable node would be an inconsistency, so include
     any stragglers at the end for safety. *)
  Addr.Table.iter (fun a n -> if not (Addr.Table.mem visited a) then order := n :: !order) t.nodes;
  List.rev !order

let mark_rejoining_paths t =
  let order = postorder t in
  let productive_passes = ref 0 in
  let continue = ref true in
  while !continue do
    let marked_any = ref false in
    List.iter
      (fun n ->
        if not n.marked then
          if Addr.Set.exists (fun s -> is_marked t s) n.succs then begin
            n.marked <- true;
            marked_any := true
          end)
      order;
    if !marked_any then incr productive_passes else continue := false
  done;
  !productive_passes

let to_spec ?(layout = `Hot_first) t =
  if not (is_marked t t.entry) then invalid_arg "Trace_cfg.to_spec: entry is not marked";
  let surviving a = is_marked t a in
  let nodes = ref [] in
  let edges = ref [] in
  let add_edge src dst = edges := (src, dst) :: !edges in
  Addr.Table.iter
    (fun a n ->
      if n.marked then begin
        nodes := n.block :: !nodes;
        Addr.Set.iter (fun s -> if surviving s then add_edge a s) n.succs;
        (* Line 16 of Figure 13: a region exit that targets a block of the
           region becomes an edge.  For direct transfers the link is static. *)
        (match Terminator.static_target n.block.Block.term with
        | Some tgt when surviving tgt -> add_edge a tgt
        | Some _ | None -> ());
        if Terminator.can_fall_through n.block.Block.term then begin
          let fall = Block.fall_addr n.block in
          if surviving fall then add_edge a fall
        end
      end)
    t.nodes;
  List.iter (fun (src, dst) -> if surviving src && surviving dst then add_edge src dst) t.finals;
  let nodes = List.sort (fun a b -> Addr.compare a.Block.start b.Block.start) !nodes in
  let layout_hint =
    match layout with
    | `Address_order -> []
    | `Hot_first ->
      List.map
        (fun (b : Block.t) -> b.Block.start)
        (List.sort
           (fun (a : Block.t) (b : Block.t) ->
             compare
               (-occurrences t a.Block.start, a.Block.start)
               (-occurrences t b.Block.start, b.Block.start))
           nodes)
  in
  {
    Region.entry = t.entry;
    nodes;
    edges = List.sort_uniq compare !edges;
    kind = Region.Combined;
    aux_entries = [];
    layout_hint;
  }
