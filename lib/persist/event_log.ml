(* On-disk branch-event recordings.

   The file is the persistent form of a [Branch_stream.events] recording:
   a CRC'd identity header (program shape + seed, the two inputs that
   determine the branch stream) followed by one bit-packed payload.  Each
   event costs [kb + 1 + kn] bits where [kb]/[kn] are the minimal widths
   for a block id / successor code under the program's block count — for
   the bundled workloads (tens to hundreds of blocks) that is ~2-3 bytes
   per event against the 8-byte word of the in-memory recording.

   Unlike snapshots there is no per-section degrade path: a recording with
   any corrupt byte cannot be replayed bit-identically, which is its whole
   contract, so every validation failure is [Persist.Hard_corruption]. *)

open Regionsel_isa
module Branch_stream = Regionsel_engine.Branch_stream

let magic = "REVL"
let version = 1

(* Bits to represent every value in [0, max]. *)
let bits_for max =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  if max = 0 then 1 else go 0 max

let ru32 bytes pos = Int32.to_int (Bytes.get_int32_be bytes pos) land 0xFFFFFFFF

(* A header field that does not fit its u32 is refused, never wrapped. *)
let wu32 bytes pos v =
  if v lsr 32 <> 0 then invalid_arg "Event_log: value does not fit a u32 header field";
  Bytes.set_int32_be bytes pos (Int32.of_int v)

(* Every checksum sits in the four bytes right after the range it covers. *)
let seal_crc bytes ~pos ~len = wu32 bytes (pos + len) (Persist.crc32 bytes ~pos ~len)
let crc_holds bytes ~pos ~len = Persist.crc32 bytes ~pos ~len = ru32 bytes (pos + len)

let seed_lo seed = Int64.to_int (Int64.logand seed 0xFFFFFFFFL)
let seed_hi seed = Int64.to_int (Int64.shift_right_logical seed 32)

let corrupt reason = raise (Persist.Hard_corruption ("event log: " ^ reason))

(* One event is one [width]-bit field: [kb] bits of block id, the taken
   bit, then [kn] bits of successor code (0 = halt, else block id + 1).
   The block id and taken bit are exactly the low word of a recording's
   slot, so the field is [(head lsl kn) lor code].  Block ids fit 31 bits
   ({!Branch_stream.append_event}), so a field fits the 63 bits of an
   int. *)
type codec = { n_blocks : int; kn : int; width : int }

let codec program =
  let n_blocks = Program.n_blocks program in
  let kn = bits_for n_blocks in
  { n_blocks; kn; width = bits_for (n_blocks - 1) + 1 + kn }

let event_bits program = (codec program).width

(* The pack kernel: events [pos .. pos+len-1] as the payload at byte [at]
   of [out], zero-padded to a whole byte.  Fields accumulate in [acc]
   ([nacc] bits pending, fewer than 32) and leave as big-endian 32-bit
   words.  A put of at most 32 bits leaves at most 63 pending, one word's
   worth to store; the bits above [nacc] are stale and fall off the top or
   out of the stored word.  A field wider than 31 bits (a program of more
   than 2^15 blocks) goes as two puts, head then code.  Returns the byte
   past the payload. *)
let pack c ~program events ~pos ~len out ~at =
  let lo = if c.width <= 31 then 0 else c.kn in
  let hi = c.width - lo in
  let acc = ref 0 and nacc = ref 0 and o = ref at in
  for i = pos to pos + len - 1 do
    let block_id = Branch_stream.get_block_id events i in
    if block_id >= c.n_blocks then invalid_arg "Event_log.encode: block id outside the program";
    let next = Branch_stream.get_next events i in
    let id = Program.block_id program next in
    if id < 0 && next <> Addr.none then
      invalid_arg "Event_log.encode: successor is not a block start";
    let head = (block_id lsl 1) lor Bool.to_int (Branch_stream.get_taken events i) in
    let field = (head lsl c.kn) lor (id + 1) in
    let a = (!acc lsl hi) lor (field lsr lo) and n = !nacc + hi in
    if n >= 32 then begin
      Bytes.set_int32_be out !o (Int32.of_int (a lsr (n - 32)));
      o := !o + 4;
      nacc := n - 32
    end
    else nacc := n;
    acc := a;
    if lo > 0 then begin
      let a = (!acc lsl lo) lor (field land ((1 lsl lo) - 1)) and n = !nacc + lo in
      if n >= 32 then begin
        Bytes.set_int32_be out !o (Int32.of_int (a lsr (n - 32)));
        o := !o + 4;
        nacc := n - 32
      end
      else nacc := n;
      acc := a
    end
  done;
  let left = !acc lsl (32 - !nacc) in
  for j = 0 to ((!nacc + 7) lsr 3) - 1 do
    Bytes.set_uint8 out (!o + j) ((left lsr (24 - (8 * j))) land 0xFF)
  done;
  !o + ((!nacc + 7) lsr 3)

(* Validate the stored event count against the payload size before
   anything is sized from it.  The file's 64-bit count can wrap negative,
   and a wrapped count can satisfy the product check, so the range check
   comes first. *)
let payload_length c ~n_events ~n_bits =
  if n_events < 0 || n_events > n_bits || n_events * c.width <> n_bits then
    corrupt "event count disagrees with payload size";
  (n_bits + 7) / 8

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* The [k] bits (1 <= k <= 56) at bit [bit] of [b], most significant
   first: one unaligned big-endian 64-bit load, a shift and a mask.  The
   last fields of a buffer, whose 8-byte window would start past byte
   [last], fold their bytes one at a time instead. *)
let read_tail b bit k =
  let first = bit lsr 3 and stop = (bit + k - 1) lsr 3 in
  let acc = ref (Bytes.get_uint8 b first land (0xFF lsr (bit land 7))) in
  for p = first + 1 to stop do
    acc := (!acc lsl 8) lor Bytes.get_uint8 b p
  done;
  !acc lsr ((8 - ((bit + k) land 7)) land 7)

let[@inline] read_bits b ~last bit k =
  let p = bit lsr 3 in
  if p > last then read_tail b bit k
  else
    let w = get64u b p in
    let w = if Sys.big_endian then w else bswap64 w in
    Int64.to_int (Int64.shift_right_logical w (64 - (bit land 7) - k)) land ((1 lsl k) - 1)

(* The unpack kernel: decode [n] events of the payload at byte [at]
   straight into [into]'s reserved slots, and commit them only once every
   one has validated: a payload whose checksum holds but whose fields fall
   outside the program must not leave a partial append (callers feed live
   replay streams).  A field wider than 56 bits (a program of more than
   2^27 blocks) takes two reads: the head, then the code. *)
let unpack c b ~at ~program ~into n =
  let n_blocks = c.n_blocks and width = c.width in
  let split = width > 56 in
  let lo = if split then 0 else c.kn in
  let hi = width - c.kn + lo and mask = (1 lsl lo) - 1 in
  let base = 8 * at and last = Bytes.length b - 8 in
  Branch_stream.reserve into n;
  for i = 0 to n - 1 do
    let bit = base + (i * width) in
    let field = read_bits b ~last bit hi in
    let head = field lsr lo in
    let code = if split then read_tail b (bit + hi) c.kn else field land mask in
    let block_id = head lsr 1 in
    if block_id >= n_blocks then corrupt "block id outside the program";
    if code > n_blocks then corrupt "successor code outside the program";
    let next =
      if code = 0 then Addr.none else (Program.block_of_id program (code - 1)).Block.start
    in
    Branch_stream.set_pending into i ~block_id ~taken:(head land 1 = 1) ~next
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
  let out = Bytes.create (header_bytes + plen + 4) in
  Bytes.blit_string magic 0 out 0 4;
  List.iteri
    (fun k v -> wu32 out (4 + (4 * k)) v)
    [ version; c.n_blocks; seed_lo seed; seed_hi seed; n land 0xFFFFFFFF;
      (n asr 32) land 0x7FFFFFFF; 0 (* header crc *); n_bits ];
  let stop = pack c ~program events ~pos:0 ~len:n out ~at:header_bytes in
  assert (stop = header_bytes + plen);
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
  unpack c bytes ~at:header_bytes ~program ~into:events n_events;
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
  let out = Bytes.create (8 + plen + 4) in
  wu32 out 0 len;
  wu32 out 4 n_bits;
  let stop = pack c ~program events ~pos ~len out ~at:8 in
  assert (stop = 8 + plen);
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
  unpack c bytes ~at:8 ~program ~into n_events;
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
