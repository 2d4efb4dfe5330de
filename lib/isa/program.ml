type t = {
  entry : Addr.t;
  blocks : Block.t array; (* sorted by start address; index = dense block id *)
  addr_to_id : int array; (* start address -> dense id; -1 elsewhere *)
  n_insts : int;
}

let entry t = t.entry

(* The hot-path primitive: an O(1) array read behind one explicit range
   test, no hashing.  The test is the bounds check, so the read skips the
   array's own. *)
let[@inline] block_id t a =
  if a < 0 || a >= Array.length t.addr_to_id then -1 else Array.unsafe_get t.addr_to_id a

let[@inline] block_of_id t id = t.blocks.(id)

let block_at_exn t a =
  let id = block_id t a in
  if id < 0 then raise Not_found else t.blocks.(id)

let is_block_start t a = block_id t a >= 0
let n_blocks t = Array.length t.blocks
let n_insts t = t.n_insts
let blocks t = Array.copy t.blocks
let iter_blocks f t = Array.iter f t.blocks

let errorf fmt = Format.kasprintf (fun s -> Error s) fmt

let validate ~entry blocks =
  let sorted = List.sort (fun a b -> Addr.compare a.Block.start b.Block.start) blocks in
  let rec check_layout = function
    | [] | [ _ ] -> Ok ()
    | a :: (b :: _ as rest) ->
      if Addr.equal a.Block.start b.Block.start then
        errorf "two blocks share a start address"
      else if Block.fall_addr a > b.Block.start then
        errorf "blocks %a and %a overlap" Block.pp a Block.pp b
      else check_layout rest
  in
  let rec check_addresses = function
    | [] -> Ok ()
    | b :: rest ->
      if b.Block.start < 0 then errorf "block %a has a negative start address" Block.pp b
      else check_addresses rest
  in
  if sorted = [] then errorf "program has no blocks"
  else begin
    match check_addresses sorted with
    | Error _ as e -> e
    | Ok () ->
      match check_layout sorted with
      | Error _ as e -> e
      | Ok () ->
        let blocks = Array.of_list sorted in
        (* Dense ids: the flat array covers every address up to the last
           block's fall-through point, so every transfer target a validated
           program can produce is an in-bounds read. *)
        let limit = Block.fall_addr blocks.(Array.length blocks - 1) + 1 in
        let addr_to_id = Array.make limit (-1) in
        Array.iteri (fun id b -> addr_to_id.(b.Block.start) <- id) blocks;
        let is_start a = a >= 0 && a < limit && addr_to_id.(a) >= 0 in
        let check_target b tgt =
          if is_start tgt then Ok ()
          else errorf "block %a targets %a, which is not a block start" Block.pp b Addr.pp tgt
        in
        let check_fall b =
          let fall = Block.fall_addr b in
          if is_start fall then Ok ()
          else
            errorf "block %a falls through to %a, which is not a block start" Block.pp b Addr.pp
              fall
        in
        let check_block b =
          match b.Block.term with
          | Terminator.Fallthrough -> check_fall b
          | Terminator.Jump tgt -> check_target b tgt
          | Terminator.Cond tgt -> (
            match check_target b tgt with Ok () -> check_fall b | Error _ as e -> e)
          | Terminator.Call tgt -> (
            (* The return address must be a valid resumption point. *)
            match check_target b tgt with Ok () -> check_fall b | Error _ as e -> e)
          | Terminator.Indirect_call -> check_fall b
          | Terminator.Indirect_jump | Terminator.Return | Terminator.Halt -> Ok ()
        in
        let rec check_all = function
          | [] -> Ok ()
          | b :: rest -> (
            match check_block b with Ok () -> check_all rest | Error _ as e -> e)
        in
        if not (is_start entry) then errorf "entry %a is not a block start" Addr.pp entry
        else begin
          match check_all sorted with
          | Error _ as e -> e
          | Ok () ->
            let n_insts = List.fold_left (fun acc b -> acc + b.Block.size) 0 sorted in
            Ok { entry; blocks; addr_to_id; n_insts }
        end
  end

let of_blocks ~entry blocks = validate ~entry blocks

let of_blocks_exn ~entry blocks =
  match of_blocks ~entry blocks with
  | Ok t -> t
  | Error msg -> invalid_arg ("Program.of_blocks_exn: " ^ msg)
