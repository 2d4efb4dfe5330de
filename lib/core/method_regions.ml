open Regionsel_isa
module Policy = Regionsel_engine.Policy
module Context = Regionsel_engine.Context
module Region = Regionsel_engine.Region
module Code_cache = Regionsel_engine.Code_cache
module Counters = Regionsel_engine.Counters
module Params = Regionsel_engine.Params

(* Functions are not first-class in the program representation (as in a
   stripped binary), so extents are reconstructed: every known function
   entry — the program entry, static call targets, and call targets
   observed at run time — is a boundary, and a function extends from its
   entry to the next boundary. *)

type t = { ctx : Context.t; mutable boundaries : Addr.Set.t }

let name = "jit-method"

let static_boundaries program =
  let acc = ref (Addr.Set.singleton (Program.entry program)) in
  Program.iter_blocks
    (fun b ->
      match b.Block.term with
      | Terminator.Call tgt -> acc := Addr.Set.add tgt !acc
      | Terminator.Fallthrough | Terminator.Jump _ | Terminator.Cond _
      | Terminator.Indirect_jump | Terminator.Indirect_call | Terminator.Return
      | Terminator.Halt -> ())
    program;
  !acc

let create (ctx : Context.t) = { ctx; boundaries = static_boundaries ctx.Context.program }

(* Checkpoint support: the boundary set (static plus learned call targets)
   is the policy's only state.  [Addr.Set] iterates in address order, so a
   plain element dump round-trips exactly. *)
let save t emit =
  emit (Addr.Set.cardinal t.boundaries);
  Addr.Set.iter emit t.boundaries

let load ctx read =
  let t = create ctx in
  let n = read () in
  if n < 0 then failwith "Method_regions.load: negative boundary count";
  let acc = ref Addr.Set.empty in
  for _ = 1 to n do
    acc := Addr.Set.add (read ()) !acc
  done;
  t.boundaries <- !acc;
  t

let learn t entry = t.boundaries <- Addr.Set.add entry t.boundaries

(* The entry of the function containing [a]: the greatest boundary <= a. *)
let containing_function t a =
  match Addr.Set.find_last_opt (fun b -> b <= a) t.boundaries with
  | Some entry -> entry
  | None -> a

let extent t entry =
  let next_boundary =
    match Addr.Set.find_first_opt (fun b -> b > entry) t.boundaries with
    | Some b -> b
    | None -> max_int
  in
  let blocks = ref [] in
  Program.iter_blocks
    (fun b -> if b.Block.start >= entry && b.Block.start < next_boundary then blocks := b :: !blocks)
    t.ctx.Context.program;
  List.rev !blocks

let spec_of_extent entry blocks =
  let starts = Addr.Set.of_list (List.map (fun b -> b.Block.start) blocks) in
  let inside a = Addr.Set.mem a starts in
  let edges = ref [] in
  let aux = ref [] in
  let add_edge src dst = if inside dst then edges := (src, dst) :: !edges in
  List.iter
    (fun b ->
      let s = b.Block.start in
      match b.Block.term with
      | Terminator.Fallthrough -> add_edge s (Block.fall_addr b)
      | Terminator.Cond tgt ->
        add_edge s tgt;
        add_edge s (Block.fall_addr b)
      | Terminator.Jump tgt -> add_edge s tgt
      | Terminator.Call _ | Terminator.Indirect_call ->
        (* The call exits to the callee; the return re-enters the method at
           the continuation. *)
        if inside (Block.fall_addr b) then aux := Block.fall_addr b :: !aux
      | Terminator.Indirect_jump ->
        (* A compiled method lowers an intra-procedural indirect jump to a
           jump table, so any target inside the method stays inside. *)
        List.iter (fun (c : Block.t) -> add_edge s c.Block.start) blocks
      | Terminator.Return | Terminator.Halt -> ())
    blocks;
  {
    Region.entry;
    nodes = blocks;
    edges = List.sort_uniq compare !edges;
    kind = Region.Method;
    aux_entries = List.sort_uniq compare !aux;
    layout_hint = [];
  }

let bump t entry =
  if Code_cache.mem t.ctx.Context.cache entry then Policy.No_action
  else
    let c = Counters.incr t.ctx.Context.counters entry in
    if c >= t.ctx.Context.params.Params.method_threshold then begin
      Counters.release t.ctx.Context.counters entry;
      match extent t entry with
      | [] -> Policy.No_action
      | blocks -> Policy.Install [ spec_of_extent entry blocks ]
    end
    else Policy.No_action

let handle t = function
  | Policy.Interp_block ib -> (
    let block = ib.Policy.block and taken = ib.Policy.taken and tgt = ib.Policy.next in
    if not (taken && not (Addr.is_none tgt)) then Policy.No_action
    else
      match block.Block.term with
      | Terminator.Call _ | Terminator.Indirect_call ->
        (* A method invocation: count it against the callee. *)
        learn t tgt;
        bump t tgt
      | Terminator.Cond _ | Terminator.Jump _ ->
        if Addr.is_backward ~src:(Block.last block) ~tgt then
          (* A hot loop: count it as an on-stack-replacement opportunity for
             the containing function. *)
          bump t (containing_function t tgt)
        else Policy.No_action
      | Terminator.Fallthrough | Terminator.Indirect_jump | Terminator.Return
      | Terminator.Halt -> Policy.No_action)
  | Policy.Cache_exited { tgt; _ } ->
    (* Exits land at callees or continuations; count invocations of the
       containing function. *)
    bump t (containing_function t tgt)
  | Policy.Region_invalidated { entry } ->
    (* Invocation counting restarts; learned function boundaries stay. *)
    Counters.release t.ctx.Context.counters entry;
    Policy.No_action
