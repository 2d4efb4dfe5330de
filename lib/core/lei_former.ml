open Regionsel_isa
module Region = Regionsel_engine.Region
module Context = Regionsel_engine.Context
module Code_cache = Regionsel_engine.Code_cache
module Params = Regionsel_engine.Params

(* The history buffer only records interpreted taken branches, so a slice
   of it is execution-contiguous except where control passed through the
   code cache.  Every such gap is immediately followed by a cache-exit
   entry ([follows_exit]): control re-enters the interpreter only through
   an exit.  FORM-TRACE therefore walks the slice normally between plain
   entries and, on reaching a gap, finishes with a best-effort fall-through
   tail from the last known point — stopping at blocks that begin cached
   regions (the paper's "next instruction begins a trace") and at
   unconditional transfers, whose taken target in a gap segment can only
   have been a cache dispatch. *)

(* [node_set] holds the block ids of the trace being formed.  It is sized
   to the program once per policy instance and, between formations, is
   empty: each formation removes exactly the ids it added. *)
type t = { program : Program.t; node_set : Id_set.t }

let create program = { program; node_set = Id_set.create (Program.n_blocks program) }

type acc = { mutable rev_ids : int list; mutable n_insts : int }

let form t ~ctx ~buf ~start ~after_seq =
  let program = t.program in
  let cache = ctx.Context.cache in
  let max_insts = ctx.Context.params.Params.max_trace_insts in
  let acc = { rev_ids = []; n_insts = 0 } in
  let path final_next =
    if acc.rev_ids = [] then None
    else
      Some
        {
          Region.blocks = List.rev_map (Program.block_of_id program) acc.rev_ids;
          final_next;
        }
  in
  let add id (b : Block.t) =
    acc.rev_ids <- id :: acc.rev_ids;
    Id_set.add t.node_set id;
    acc.n_insts <- acc.n_insts + b.Block.size
  in
  (* Extend the trace from [cur] along fall-throughs only, into a segment
     whose branch outcomes were not recorded. *)
  let rec tail_walk cur =
    if Code_cache.mem cache cur then path (Some cur)
    else
      let id = Program.block_id program cur in
      if id < 0 then path None
      else
        let b = Program.block_of_id program id in
        add id b;
        if acc.n_insts >= max_insts then path (Some (Block.fall_addr b))
        else begin
          match b.Block.term with
          | Terminator.Fallthrough -> tail_walk (Block.fall_addr b)
          | Terminator.Cond tgt ->
            (* A taken conditional in a gap segment must have dispatched
               into the cache; otherwise it was not taken. *)
            if Code_cache.mem cache tgt then path (Some tgt)
            else tail_walk (Block.fall_addr b)
          | Terminator.Jump tgt | Terminator.Call tgt -> path (Some tgt)
          | Terminator.Return | Terminator.Indirect_jump | Terminator.Indirect_call
          | Terminator.Halt -> path None
        end
  in
  (* Walk the recorded fall-through blocks from [cur] up to the block
     ending at the branch source [src] (whose target is [tgt]);
     [`Stopped] ends trace formation. *)
  let rec walk_fall_through cur ~src ~tgt =
    if Code_cache.mem cache cur then `Stopped (path (Some cur))
    else
      let id = Program.block_id program cur in
      if id < 0 then `Stopped (path None)
      else
        let b = Program.block_of_id program id in
        add id b;
        let reached = Addr.equal (Block.last b) src in
        if acc.n_insts >= max_insts then
          `Stopped (path (Some (if reached then tgt else Block.fall_addr b)))
        else if reached then `Reached_branch
        else
          let a = Block.fall_addr b in
          (* The slice disagrees with the program layout: stop rather
             than walk off the recorded path. *)
          if (not (Terminator.can_fall_through b.Block.term)) || a > src then
            `Stopped (path (Terminator.static_target b.Block.term))
          else walk_fall_through a ~src ~tgt
  in
  (* The branches are the live buffer entries after [after_seq], read in
     place through the buffer's cursor. *)
  let rec over_branches prev ~after =
    let seq = History_buffer.next_live buf ~after in
    if seq = 0 then path (Some prev)
    else if History_buffer.follows_exit_at buf seq then
      (* Control passed through the code cache before this entry: the
         recorded outcomes end at [prev]. *)
      tail_walk prev
    else begin
      let tgt = History_buffer.tgt_at buf seq in
      match walk_fall_through prev ~src:(History_buffer.src_at buf seq) ~tgt with
      | `Stopped result -> result
      | `Reached_branch ->
        if Id_set.mem t.node_set (Program.block_id program tgt) then path (Some tgt)
        else over_branches tgt ~after:seq
    end
  in
  let result = over_branches start ~after:after_seq in
  List.iter (Id_set.remove t.node_set) acc.rev_ids;
  result
