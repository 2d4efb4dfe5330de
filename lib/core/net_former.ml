open Regionsel_isa
module Policy = Regionsel_engine.Policy
module Region = Regionsel_engine.Region
module Context = Regionsel_engine.Context
module Code_cache = Regionsel_engine.Code_cache
module Params = Regionsel_engine.Params

(* The recording is a growable array of block ids, so a fed step writes
   one int; the [Region.path] is built once, when the recording ends. *)
type t = {
  program : Program.t;
  entry : Addr.t;
  mutable ids : int array; (* block ids in execution order; [n_blocks] used *)
  mutable n_blocks : int;
  mutable n_insts : int;
  mutable finished : bool;
}

type outcome = Continue | Done of Region.path

let start program ~entry =
  { program; entry; ids = Array.make 16 0; n_blocks = 0; n_insts = 0; finished = false }

let entry t = t.entry

let push t id =
  if t.n_blocks = Array.length t.ids then begin
    let ids = Array.make (2 * t.n_blocks) 0 in
    Array.blit t.ids 0 ids 0 t.n_blocks;
    t.ids <- ids
  end;
  t.ids.(t.n_blocks) <- id;
  t.n_blocks <- t.n_blocks + 1

let finish t ~final_next =
  t.finished <- true;
  Done
    {
      Region.blocks = List.init t.n_blocks (fun i -> Program.block_of_id t.program t.ids.(i));
      final_next = (if Addr.is_none final_next then None else Some final_next);
    }

(* Checkpoint support: blocks travel as start addresses, most recent
   first, and are looked up again in the program, so a corrupt stream
   cannot smuggle in a block the program does not contain.  The block
   count is written twice, as list length and as counter. *)

let save t emit =
  emit t.entry;
  emit t.n_blocks;
  for i = t.n_blocks - 1 downto 0 do
    emit (Program.block_of_id t.program t.ids.(i)).Block.start
  done;
  emit t.n_blocks;
  emit t.n_insts;
  emit (if t.finished then 1 else 0)

let load ~program read =
  let entry = read () in
  let n = read () in
  if n < 0 then failwith "Net_former.load: negative block count";
  let t = start program ~entry in
  t.ids <- Array.make (max 16 n) 0;
  for i = n - 1 downto 0 do
    let id = Program.block_id program (read ()) in
    if id < 0 then failwith "Net_former.load: block is not a block start";
    t.ids.(i) <- id
  done;
  t.n_blocks <- n;
  if read () <> n then failwith "Net_former.load: block count mismatch";
  t.n_insts <- read ();
  t.finished <-
    (match read () with
    | 0 -> false
    | 1 -> true
    | _ -> failwith "Net_former.load: bad flag");
  t

let feed t ~ctx ~block ~taken ~next =
  if t.finished then invalid_arg "Net_former.feed: already finished";
  if t.n_blocks = 0 && not (Addr.equal block.Block.start t.entry) then
    invalid_arg "Net_former.feed: first block does not start at the entry";
  push t (Program.block_id t.program block.Block.start);
  t.n_insts <- t.n_insts + block.Block.size;
  let params = ctx.Context.params in
  if Addr.is_none next then finish t ~final_next:next
  else if
    taken
    && (Addr.is_backward ~src:(Block.last block) ~tgt:next
       || Addr.equal next t.entry
       || Code_cache.mem ctx.Context.cache next)
  then finish t ~final_next:next
  else if
    t.n_insts >= params.Params.max_trace_insts || t.n_blocks >= params.Params.max_trace_blocks
  then finish t ~final_next:next
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
