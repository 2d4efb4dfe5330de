(* On-disk branch-event recordings.

   The file is the persistent form of a [Branch_stream.events] recording:
   a CRC'd identity header (program shape + seed, the two inputs that
   determine the branch stream) followed by one bit-packed payload.  Each
   event costs [kb + 1 + kn] bits where [kb]/[kn] are the minimal widths
   for a block id / successor code under the program's block count — for
   the bundled workloads (tens to hundreds of blocks) that is ~2 bytes per
   event against the 24 bytes of the in-memory arrays.

   Unlike snapshots there is no per-section degrade path: a recording with
   any corrupt byte cannot be replayed bit-identically, which is its whole
   contract, so every validation failure is [Persist.Hard_corruption]. *)

open Regionsel_isa
module Branch_stream = Regionsel_engine.Branch_stream
module Bitbuf = Regionsel_core.Bitbuf

let magic = "REVL"
let version = 1

(* Bits to represent every value in [0, max]. *)
let bits_for max =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  if max = 0 then 1 else go 0 max

let ru32 bytes pos = Int32.to_int (Bytes.get_int32_be bytes pos) land 0xFFFFFFFF

(* Every checksum sits in the four bytes right after the range it covers. *)
let seal_crc bytes ~pos ~len =
  Bytes.set_int32_be bytes (pos + len) (Int32.of_int (Persist.crc32 bytes ~pos ~len))

let crc_holds bytes ~pos ~len = Persist.crc32 bytes ~pos ~len = ru32 bytes (pos + len)

let seed_lo seed = Int64.to_int (Int64.logand seed 0xFFFFFFFFL)
let seed_hi seed = Int64.to_int (Int64.shift_right_logical seed 32)

let corrupt reason = raise (Persist.Hard_corruption ("event log: " ^ reason))

(* One event is one [width]-bit field: [kb] bits of block id, the taken
   bit, then [kn] bits of successor code (0 = halt, else block id + 1).
   The block id and taken bit are exactly a recording's packed slot, so the
   field is [(packed lsl kn) lor code].  A field wider than one
   [Bitbuf.max_bits] word (programs of more than 2^27 blocks) goes as two. *)
type codec = { n_blocks : int; kn : int; width : int }

let codec program =
  let n_blocks = Program.n_blocks program in
  let kn = bits_for n_blocks in
  { n_blocks; kn; width = bits_for (n_blocks - 1) + 1 + kn }

let event_bits program = (codec program).width

(* Events [pos .. pos+len-1] as the payload, zero-padded to a whole byte,
   followed by a zero placeholder for its checksum. *)
let add_payload c w ~program events ~pos ~len =
  for i = pos to pos + len - 1 do
    let block_id = Branch_stream.get_block_id events i in
    if block_id >= c.n_blocks then invalid_arg "Event_log.encode: block id outside the program";
    let next = Branch_stream.get_next events i in
    let id = Program.block_id program next in
    if id < 0 && next <> Addr.none then
      invalid_arg "Event_log.encode: successor is not a block start";
    let head = (block_id lsl 1) lor Bool.to_int (Branch_stream.get_taken events i) in
    if c.width <= Bitbuf.max_bits then
      Bitbuf.Writer.add_bits w ((head lsl c.kn) lor (id + 1)) c.width
    else begin
      Bitbuf.Writer.add_bits w head (c.width - c.kn);
      Bitbuf.Writer.add_bits w (id + 1) c.kn
    end
  done;
  Bitbuf.Writer.add_bits w 0 ((8 - ((len * c.width) land 7)) land 7);
  Bitbuf.Writer.add_uint32 w 0

(* Validate the stored event count against the payload size before
   anything is sized from it.  The file's 64-bit count can wrap negative,
   and a wrapped count can satisfy the product check, so the range check
   comes first. *)
let payload_length c ~n_events ~n_bits =
  if n_events < 0 || n_events > n_bits || n_events * c.width <> n_bits then
    corrupt "event count disagrees with payload size";
  (n_bits + 7) / 8

(* Decode [n] events from [r] straight into [into]'s reserved slots and
   commit them only once every one has validated: a payload whose checksum
   holds but whose fields fall outside the program must not leave a
   partial append (callers feed live replay streams). *)
let unpack c r ~program ~into n =
  let starts =
    Array.init (c.n_blocks + 1) (fun code ->
        if code = 0 then Addr.none else (Program.block_of_id program (code - 1)).Block.start)
  in
  let fused = c.width <= Bitbuf.max_bits and mask = (1 lsl c.kn) - 1 in
  Branch_stream.reserve into n;
  for i = 0 to n - 1 do
    let field = if fused then Bitbuf.Reader.read_bits r c.width else 0 in
    let head = if fused then field lsr c.kn else Bitbuf.Reader.read_bits r (c.width - c.kn) in
    let code = if fused then field land mask else Bitbuf.Reader.read_bits r c.kn in
    let block_id = head lsr 1 in
    if block_id >= c.n_blocks then corrupt "block id outside the program";
    if code > c.n_blocks then corrupt "successor code outside the program";
    Branch_stream.set_pending into i ~block_id ~taken:(head land 1 = 1) ~next:starts.(code)
  done;
  Branch_stream.commit into n

(* File layout, every word a big-endian u32:

       "REVL" | version | n_blocks | seed lo | seed hi | n_events lo
       | n_events hi | crc32(bytes 0-27) | n_bits | payload
       | crc32(payload) *)
let header_bytes = 36

let encode ~program ~seed events =
  let c = codec program in
  let n = Branch_stream.length events in
  let n_bits = n * c.width in
  let plen = (n_bits + 7) / 8 in
  let w = Bitbuf.Writer.create ~capacity:(header_bytes + plen + 4) () in
  String.iter (fun ch -> Bitbuf.Writer.add_bits w (Char.code ch) 8) magic;
  List.iter (Bitbuf.Writer.add_uint32 w)
    [ version; c.n_blocks; seed_lo seed; seed_hi seed; n land 0xFFFFFFFF;
      (n asr 32) land 0x7FFFFFFF; 0 (* header crc *); n_bits ];
  add_payload c w ~program events ~pos:0 ~len:n;
  let out = Bitbuf.Writer.contents w in
  seal_crc out ~pos:0 ~len:28;
  seal_crc out ~pos:header_bytes ~len:plen;
  out

let decode bytes ~program ~seed =
  let total = Bytes.length bytes in
  if total < header_bytes then corrupt "truncated header";
  if Bytes.sub_string bytes 0 4 <> magic then corrupt "bad magic";
  if not (crc_holds bytes ~pos:0 ~len:28) then corrupt "header checksum mismatch";
  let v = ru32 bytes 4 in
  if v <> version then corrupt (Printf.sprintf "unsupported version %d" v);
  let c = codec program in
  let n_blocks = ru32 bytes 8 in
  if n_blocks <> c.n_blocks then
    corrupt
      (Printf.sprintf "program mismatch (%d blocks recorded, %d here)" n_blocks c.n_blocks);
  if ru32 bytes 12 <> seed_lo seed || ru32 bytes 16 <> seed_hi seed then
    corrupt "seed mismatch";
  let n_events = (ru32 bytes 24 lsl 32) lor ru32 bytes 20 in
  let n_bits = ru32 bytes 32 in
  let plen = payload_length c ~n_events ~n_bits in
  if total <> header_bytes + plen + 4 then corrupt "truncated payload";
  if not (crc_holds bytes ~pos:header_bytes ~len:plen) then corrupt "payload checksum mismatch";
  let events = Branch_stream.recorder ~capacity:n_events () in
  unpack c (Bitbuf.Reader.create ~pos:header_bytes bytes ~n_bits) ~program ~into:events n_events;
  events

(* The wire form of a recording slice — the daemon's Events frame body.
   Same bit packing and checksum discipline as the file, but no identity
   header: on the wire, identity was already pinned by the session Hello.

       u32 n_events | u32 n_bits | payload | u32 crc32(payload) *)

let encode_batch ~program events ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Branch_stream.length events then
    invalid_arg "Event_log.encode_batch: range outside the recording";
  let c = codec program in
  let n_bits = len * c.width in
  let plen = (n_bits + 7) / 8 in
  let w = Bitbuf.Writer.create ~capacity:(8 + plen + 4) () in
  Bitbuf.Writer.add_uint32 w len;
  Bitbuf.Writer.add_uint32 w n_bits;
  add_payload c w ~program events ~pos ~len;
  let out = Bitbuf.Writer.contents w in
  seal_crc out ~pos:8 ~len:plen;
  out

let decode_batch bytes ~program ~into =
  let total = Bytes.length bytes in
  if total < 12 then corrupt "truncated batch";
  let n_events = ru32 bytes 0 in
  let n_bits = ru32 bytes 4 in
  let c = codec program in
  let plen = payload_length c ~n_events ~n_bits in
  if total <> 8 + plen + 4 then corrupt "truncated batch payload";
  if not (crc_holds bytes ~pos:8 ~len:plen) then corrupt "batch payload checksum mismatch";
  unpack c (Bitbuf.Reader.create ~pos:8 bytes ~n_bits) ~program ~into n_events;
  n_events

let write_file ~path ~program ~seed events =
  let data = encode ~program ~seed events in
  Io.write_atomic ~path data;
  Bytes.length data

let read_file ~path ~program ~seed =
  let ic = open_in_bin path in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  decode (Bytes.of_string data) ~program ~seed
