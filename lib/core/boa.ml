open Regionsel_isa
module Policy = Regionsel_engine.Policy
module Context = Regionsel_engine.Context
module Region = Regionsel_engine.Region
module Code_cache = Regionsel_engine.Code_cache
module Counters = Regionsel_engine.Counters
module Params = Regionsel_engine.Params

(* Branch biases are kept per conditional block, by block id: a
   conditional site is the last instruction of exactly one block. *)
type t = {
  ctx : Context.t;
  taken : int array;
  not_taken : int array;
  sites : Id_set.t; (* blocks with a bias entry, zero counts included *)
  seen : Id_set.t; (* [grow]'s scratch, empty between calls *)
}

let name = "boa"

let create (ctx : Context.t) =
  let n = Program.n_blocks ctx.Context.program in
  {
    ctx;
    taken = Array.make n 0;
    not_taken = Array.make n 0;
    sites = Id_set.create n;
    seen = Id_set.create n;
  }

(* The id of the block whose last instruction is [site], or [-1]: blocks
   are sorted by address and do not overlap, so their last instructions
   are sorted too. *)
let id_of_site program site =
  let rec search lo hi =
    if lo > hi then -1
    else
      let mid = (lo + hi) / 2 in
      let last = Block.last (Program.block_of_id program mid) in
      if last = site then mid else if last < site then search (mid + 1) hi else search lo (mid - 1)
  in
  search 0 (Program.n_blocks program - 1)

(* Checkpoint support.  Entries travel as (site, taken, not taken) in
   ascending site order; [sites] is only ever probed by key (never
   iterated on the selection path), so content equality is enough on
   restore. *)
let save t emit =
  emit (Id_set.cardinal t.sites);
  Id_set.iter
    (fun id ->
      emit (Block.last (Program.block_of_id t.ctx.Context.program id));
      emit t.taken.(id);
      emit t.not_taken.(id))
    t.sites

let load ctx read =
  let t = create ctx in
  let n = read () in
  if n < 0 then failwith "Boa.load: negative bias count";
  for _ = 1 to n do
    let id = id_of_site ctx.Context.program (read ()) in
    let taken = read () in
    let not_taken = read () in
    if id < 0 then failwith "Boa.load: site is not the last instruction of a block";
    if taken < 0 || not_taken < 0 then failwith "Boa.load: negative bias";
    Id_set.add t.sites id;
    t.taken.(id) <- taken;
    t.not_taken.(id) <- not_taken
  done;
  t

let record_outcome t block taken =
  match block.Block.term with
  | Terminator.Cond _ ->
    let id = Program.block_id t.ctx.Context.program block.Block.start in
    Id_set.add t.sites id;
    if taken then t.taken.(id) <- t.taken.(id) + 1
    else t.not_taken.(id) <- t.not_taken.(id) + 1
  | Terminator.Fallthrough | Terminator.Jump _ | Terminator.Call _ | Terminator.Indirect_jump
  | Terminator.Indirect_call | Terminator.Return | Terminator.Halt -> ()

(* Grow a trace from [entry] by following each conditional's bias. *)
let grow t entry =
  let program = t.ctx.Context.program in
  let params = t.ctx.Context.params in
  (* The walk's blocks are marked in [t.seen]; [stop] returns their ids
     for unmarking with the path. *)
  let stop rev_ids final_next =
    (rev_ids, { Region.blocks = List.rev_map (Program.block_of_id program) rev_ids; final_next })
  in
  let rec go rev_ids n_blocks n_insts cur =
    let id = Program.block_id program cur in
    if Id_set.mem t.seen id then stop rev_ids (Some cur)
    else if (not (Addr.equal cur entry)) && Code_cache.mem t.ctx.Context.cache cur then
      stop rev_ids (Some cur)
    else if id < 0 then stop rev_ids None
    else begin
      let b = Program.block_of_id program id in
      Id_set.add t.seen id;
      let rev_ids = id :: rev_ids in
      let n_blocks = n_blocks + 1 in
      let n_insts = n_insts + b.Block.size in
      let next =
        match b.Block.term with
        | Terminator.Cond tgt ->
          (* Consulting a site's bias gives it an entry, as recording an
             outcome does. *)
          Id_set.add t.sites id;
          if t.taken.(id) >= t.not_taken.(id) then tgt else Block.fall_addr b
        | Terminator.Jump tgt | Terminator.Call tgt -> tgt
        | Terminator.Fallthrough -> Block.fall_addr b
        | Terminator.Return | Terminator.Indirect_jump | Terminator.Indirect_call
        | Terminator.Halt -> Addr.none
      in
      if Addr.is_none next then stop rev_ids None
      else if
        Addr.is_backward ~src:(Block.last b) ~tgt:next
        || n_insts >= params.Params.max_trace_insts
        || n_blocks >= params.Params.max_trace_blocks
      then stop rev_ids (Some next)
      else go rev_ids n_blocks n_insts next
    end
  in
  let rev_ids, path = go [] 0 0 entry in
  List.iter (Id_set.remove t.seen) rev_ids;
  if path.Region.blocks = [] then None else Some path

let bump t tgt =
  let c = Counters.incr t.ctx.Context.counters tgt in
  if c >= t.ctx.Context.params.Params.boa_threshold then begin
    Counters.release t.ctx.Context.counters tgt;
    match grow t tgt with
    | Some path ->
      Policy.Install [ Region.spec_of_path ~kind:Region.Trace path ]
    | None -> Policy.No_action
  end
  else Policy.No_action

let handle t = function
  | Policy.Interp_block ib ->
    let block = ib.Policy.block and taken = ib.Policy.taken and tgt = ib.Policy.next in
    record_outcome t block taken;
    if Net_former.is_start_point t.ctx ~block ~taken ~next:tgt ~installing:Policy.No_action
    then bump t tgt
    else Policy.No_action
  | Policy.Cache_exited { tgt; _ } -> bump t tgt
  | Policy.Region_invalidated { entry } ->
    (* Entry counting restarts; accumulated branch biases stay valid. *)
    Counters.release t.ctx.Context.counters entry;
    Policy.No_action
