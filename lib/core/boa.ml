open Regionsel_isa
module Policy = Regionsel_engine.Policy
module Context = Regionsel_engine.Context
module Region = Regionsel_engine.Region
module Code_cache = Regionsel_engine.Code_cache
module Counters = Regionsel_engine.Counters
module Params = Regionsel_engine.Params

type bias = { mutable taken : int; mutable not_taken : int }

type t = { ctx : Context.t; biases : bias Addr.Table.t (* keyed by conditional site *) }

let name = "boa"
let create ctx = { ctx; biases = Addr.Table.create 512 }

(* Checkpoint support.  [biases] is only ever probed by key (never
   iterated), so content equality is enough on restore. *)
let save t emit =
  emit (Addr.Table.length t.biases);
  Addr.Table.iter_sorted
    (fun site b ->
      emit site;
      emit b.taken;
      emit b.not_taken)
    t.biases

let load ctx read =
  let t = create ctx in
  let n = read () in
  if n < 0 then failwith "Boa.load: negative bias count";
  for _ = 1 to n do
    let site = read () in
    let taken = read () in
    let not_taken = read () in
    if taken < 0 || not_taken < 0 then failwith "Boa.load: negative bias";
    Addr.Table.replace t.biases site { taken; not_taken }
  done;
  t

let bias_of t site =
  match Addr.Table.find_opt t.biases site with
  | Some b -> b
  | None ->
    let b = { taken = 0; not_taken = 0 } in
    Addr.Table.replace t.biases site b;
    b

let record_outcome t block taken =
  match block.Block.term with
  | Terminator.Cond _ ->
    let b = bias_of t (Block.last block) in
    if taken then b.taken <- b.taken + 1 else b.not_taken <- b.not_taken + 1
  | Terminator.Fallthrough | Terminator.Jump _ | Terminator.Call _ | Terminator.Indirect_jump
  | Terminator.Indirect_call | Terminator.Return | Terminator.Halt -> ()

(* Grow a trace from [entry] by following each conditional's bias. *)
let grow t entry =
  let program = t.ctx.Context.program in
  let params = t.ctx.Context.params in
  let seen = Addr.Table.create 32 in
  let rec go rev_blocks n_insts cur =
    let stop final_next = { Region.blocks = List.rev rev_blocks; final_next } in
    if Addr.Table.mem seen cur then stop (Some cur)
    else if (not (Addr.equal cur entry)) && Code_cache.mem t.ctx.Context.cache cur then
      stop (Some cur)
    else
      match Program.block_at program cur with
      | None -> stop None
      | Some b ->
        Addr.Table.replace seen cur ();
        let rev_blocks = b :: rev_blocks in
        let n_insts = n_insts + b.Block.size in
        let stop final_next = { Region.blocks = List.rev rev_blocks; final_next } in
        let next =
          match b.Block.term with
          | Terminator.Cond tgt ->
            let bias = bias_of t (Block.last b) in
            if bias.taken >= bias.not_taken then Some tgt else Some (Block.fall_addr b)
          | Terminator.Jump tgt | Terminator.Call tgt -> Some tgt
          | Terminator.Fallthrough -> Some (Block.fall_addr b)
          | Terminator.Return | Terminator.Indirect_jump | Terminator.Indirect_call
          | Terminator.Halt -> None
        in
        (match next with
        | None -> stop None
        | Some a ->
          if
            Addr.is_backward ~src:(Block.last b) ~tgt:a
            || n_insts >= params.Params.max_trace_insts
            || List.length rev_blocks >= params.Params.max_trace_blocks
          then stop (Some a)
          else go rev_blocks n_insts a)
  in
  let path = go [] 0 entry in
  if path.Region.blocks = [] then None else Some path

let bump t tgt =
  let c = Counters.incr t.ctx.Context.counters tgt in
  if c >= t.ctx.Context.params.Params.boa_threshold then begin
    Counters.release t.ctx.Context.counters tgt;
    match grow t tgt with
    | Some path -> Policy.Install [ Region.spec_of_path ~kind:Region.Trace path ]
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
