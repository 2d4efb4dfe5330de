open Regionsel_isa
module Policy = Regionsel_engine.Policy
module Region = Regionsel_engine.Region
module Context = Regionsel_engine.Context
module Code_cache = Regionsel_engine.Code_cache
module Params = Regionsel_engine.Params

type t = {
  entry : Addr.t;
  mutable rev_blocks : Block.t list;
  mutable n_blocks : int;
  mutable n_insts : int;
  mutable finished : bool;
}

type outcome = Continue | Done of Region.path

let start ~entry = { entry; rev_blocks = []; n_blocks = 0; n_insts = 0; finished = false }
let entry t = t.entry

let finish t ~final_next =
  t.finished <- true;
  Done { Region.blocks = List.rev t.rev_blocks; final_next }

(* Checkpoint support: blocks travel as start addresses and are looked up
   again in the program, so a corrupt stream cannot smuggle in a block the
   program does not contain. *)

let save t emit =
  emit t.entry;
  emit (List.length t.rev_blocks);
  List.iter (fun (b : Block.t) -> emit b.Block.start) t.rev_blocks;
  emit t.n_blocks;
  emit t.n_insts;
  emit (if t.finished then 1 else 0)

let load ~program read =
  let entry = read () in
  let n = read () in
  if n < 0 then failwith "Net_former.load: negative block count";
  let rev_blocks =
    List.init n (fun _ ->
        let a = read () in
        if not (Program.is_block_start program a) then
          failwith "Net_former.load: block is not a block start";
        Program.block_of_id program (Program.block_id program a))
  in
  let n_blocks = read () in
  let n_insts = read () in
  let finished =
    match read () with
    | 0 -> false
    | 1 -> true
    | _ -> failwith "Net_former.load: bad flag"
  in
  { entry; rev_blocks; n_blocks; n_insts; finished }

let feed t ~ctx ~block ~taken ~next =
  if t.finished then invalid_arg "Net_former.feed: already finished";
  if t.rev_blocks = [] && not (Addr.equal block.Block.start t.entry) then
    invalid_arg "Net_former.feed: first block does not start at the entry";
  t.rev_blocks <- block :: t.rev_blocks;
  t.n_blocks <- t.n_blocks + 1;
  t.n_insts <- t.n_insts + block.Block.size;
  let params = ctx.Context.params in
  match next with
  | None -> finish t ~final_next:None
  | Some a ->
    let stop_taken =
      taken
      && (Addr.is_backward ~src:(Block.last block) ~tgt:a
         || Addr.equal a t.entry
         || Code_cache.mem ctx.Context.cache a)
    in
    if stop_taken then finish t ~final_next:(Some a)
    else if
      t.n_insts >= params.Params.max_trace_insts || t.n_blocks >= params.Params.max_trace_blocks
    then finish t ~final_next:(Some a)
    else Continue

let rec installs a = function
  | [] -> false
  | (s : Region.spec) :: specs -> Addr.equal s.Region.entry a || installs a specs

let is_start_point ctx ~block ~taken ~next ~installing =
  taken
  && (not (Addr.is_none next))
  && (not (Code_cache.mem ctx.Context.cache next))
  && (match installing with
     | Policy.No_action -> true
     | Policy.Install specs -> not (installs next specs))
  && Addr.is_backward ~src:(Block.last block) ~tgt:next
