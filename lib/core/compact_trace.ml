open Regionsel_isa
module Region = Regionsel_engine.Region

type t = { entry : Addr.t; data : bytes; n_bits : int }

let entry t = t.entry
let size_bytes t = Bytes.length t.data

(* Branch codes, per Figure 14. *)
let code_end = 0
let code_indirect = 1
let code_not_taken = 2
let code_taken = 3

let encode (path : Region.path) =
  match path.blocks with
  | [] -> invalid_arg "Compact_trace.encode: empty path"
  | first :: _ ->
    let w = Bitbuf.Writer.create () in
    let inconsistent b s =
      invalid_arg
        (Printf.sprintf "Compact_trace.encode: %s cannot transfer to %s" (Addr.to_string
           (Block.last b)) (Addr.to_string s))
    in
    let emit b succ =
      match b.Block.term with
      | Terminator.Fallthrough | Terminator.Halt -> (
        match succ with
        | Some s when not (Addr.equal s (Block.fall_addr b)) -> inconsistent b s
        | Some _ | None -> ())
      | Terminator.Cond tgt -> (
        match succ with
        | Some s when Addr.equal s tgt -> Bitbuf.Writer.add_bits2 w code_taken
        | Some s when Addr.equal s (Block.fall_addr b) ->
          Bitbuf.Writer.add_bits2 w code_not_taken
        | Some s -> inconsistent b s
        | None -> ())
      | Terminator.Jump tgt | Terminator.Call tgt -> (
        match succ with
        | Some s when Addr.equal s tgt -> Bitbuf.Writer.add_bits2 w code_taken
        | Some s -> inconsistent b s
        | None -> ())
      | Terminator.Return | Terminator.Indirect_jump | Terminator.Indirect_call -> (
        match succ with
        | Some s ->
          Bitbuf.Writer.add_bits2 w code_indirect;
          Bitbuf.Writer.add_uint32 w s
        | None -> ())
    in
    let rec go = function
      | [] -> assert false
      | [ last ] ->
        emit last path.Region.final_next;
        last
      | b :: (c :: _ as rest) ->
        emit b (Some c.Block.start);
        go rest
    in
    let last = go path.blocks in
    Bitbuf.Writer.add_bits2 w code_end;
    Bitbuf.Writer.add_uint32 w (Block.last last);
    {
      entry = first.Block.start;
      data = Bitbuf.Writer.contents w;
      n_bits = Bitbuf.Writer.length_bits w;
    }

(* Checkpoint support: the encoding is already a flat byte string, so a
   trace serializes as its geometry plus raw bytes. *)

let save t emit =
  emit t.entry;
  emit t.n_bits;
  emit (Bytes.length t.data);
  Bytes.iter (fun c -> emit (Char.code c)) t.data

let load read =
  let entry = read () in
  let n_bits = read () in
  let len = read () in
  if len < 0 || n_bits < 0 || n_bits > len * 8 then
    failwith "Compact_trace.load: invalid geometry";
  let data = Bytes.create len in
  for i = 0 to len - 1 do
    let c = read () in
    if c < 0 || c > 255 then failwith "Compact_trace.load: byte out of range";
    Bytes.set data i (Char.chr c)
  done;
  { entry; data; n_bits }

let errorf fmt = Format.kasprintf invalid_arg fmt

(* Two passes over the bits, no token list: the first counts the branch
   codes and reads the end address, which the walk needs from its first
   block on; the second reads each code as the walk reaches its branch.
   The walk indexes the program by block id. *)
let decode program t =
  let r = Bitbuf.Reader.create t.data ~n_bits:t.n_bits in
  let rec count n =
    let code = Bitbuf.Reader.read_bits2 r in
    if code = code_end then n
    else begin
      if code = code_indirect then ignore (Bitbuf.Reader.read_uint32 r : int);
      count (n + 1)
    end
  in
  let n_codes = count 0 in
  let end_addr = Bitbuf.Reader.read_uint32 r in
  let r = Bitbuf.Reader.create t.data ~n_bits:t.n_bits in
  let remaining = ref n_codes in
  let blocks = ref [] in
  let final_next = ref Addr.none in
  let finished = ref false in
  let cur = ref t.entry in
  let steps = ref 0 in
  while not !finished do
    incr steps;
    if !steps > 1_000_000 then errorf "Compact_trace.decode: runaway walk from %a" Addr.pp t.entry;
    let id = Program.block_id program !cur in
    if id < 0 then errorf "Compact_trace.decode: %a is not a block start" Addr.pp !cur;
    let b = Program.block_of_id program id in
    blocks := b :: !blocks;
    let succ =
      match b.Block.term with
      | Terminator.Fallthrough -> Block.fall_addr b
      | Terminator.Halt -> Addr.none
      | term ->
        if !remaining = 0 then begin
          (* The final branch's outcome was unknown to the encoder. *)
          if Block.last b <> end_addr then
            errorf "Compact_trace.decode: ran out of codes before %a" Addr.pp end_addr;
          Addr.none
        end
        else begin
          decr remaining;
          let code = Bitbuf.Reader.read_bits2 r in
          match term with
          | Terminator.Cond tgt when code = code_taken -> tgt
          | Terminator.Cond _ when code = code_not_taken -> Block.fall_addr b
          | (Terminator.Jump tgt | Terminator.Call tgt) when code = code_taken -> tgt
          | (Terminator.Return | Terminator.Indirect_jump | Terminator.Indirect_call)
            when code = code_indirect -> Bitbuf.Reader.read_uint32 r
          | _ ->
            errorf "Compact_trace.decode: code inconsistent with %a at %a" Terminator.pp term
              Addr.pp (Block.last b)
        end
    in
    if !remaining = 0 && Block.last b = end_addr then begin
      final_next := succ;
      finished := true
    end
    else if Addr.is_none succ then begin
      if Block.last b <> end_addr then
        errorf "Compact_trace.decode: walk stopped at %a but trace ends at %a" Addr.pp
          (Block.last b) Addr.pp end_addr;
      finished := true
    end
    else cur := succ
  done;
  {
    Region.blocks = List.rev !blocks;
    final_next = (if Addr.is_none !final_next then None else Some !final_next);
  }
