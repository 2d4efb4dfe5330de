(* On-disk branch-event recordings.

   The file is the persistent form of a [Branch_stream.events] recording:
   a CRC'd identity header (program shape + seed, the two inputs that
   determine the branch stream) followed by one bit-packed payload.  Each
   event costs [kb + 1 + kn] bits where [kb]/[kn] are the minimal widths
   for a block id / successor code under the program's block count — for
   the bundled workloads (tens to hundreds of blocks) that is ~2-3 bytes
   per event, the same fields a recording made by the simulator holds in
   memory, against the 8-byte word of a word-slot recording.

   Unlike snapshots there is no per-section degrade path: a recording with
   any corrupt byte cannot be replayed bit-identically, which is its whole
   contract, so every validation failure is [Persist.Hard_corruption]. *)

open Regionsel_isa
module Branch_stream = Regionsel_engine.Branch_stream

let magic = "REVL"
let version = 1

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

(* The payload's fields are [Branch_stream]'s packed fields: this module
   frames and checksums them, and never reads or writes one itself. *)
let event_bits program = Branch_stream.field_bits (Branch_stream.layout program)

(* Validate the stored event count against the payload size before
   anything is sized from it.  The file's 64-bit count can wrap negative,
   and a wrapped count can satisfy the product check, so the range check
   comes first. *)
let payload_length l ~n_events ~n_bits =
  if n_events < 0 || n_events > n_bits || n_events * Branch_stream.field_bits l <> n_bits then
    corrupt "event count disagrees with payload size";
  (n_bits + 7) / 8

(* File layout, every word a big-endian u32:

       "REVL" | version | n_blocks | seed lo | seed hi | n_events lo
       | n_events hi | crc32(bytes 0-27) | n_bits | payload
       | crc32(payload) *)
let header_bytes = 36

let encode ~program ~seed events =
  let l = Branch_stream.layout program in
  let n = Branch_stream.length events in
  let n_bits = n * Branch_stream.field_bits l in
  let plen = (n_bits + 7) / 8 in
  let out = Bytes.create (header_bytes + plen + 4) in
  Bytes.blit_string magic 0 out 0 4;
  List.iteri
    (fun k v -> wu32 out (4 + (4 * k)) v)
    [ version; Program.n_blocks program; seed_lo seed; seed_hi seed; n land 0xFFFFFFFF;
      (n asr 32) land 0x7FFFFFFF; 0 (* header crc *); n_bits ];
  let stop = Branch_stream.pack l events ~pos:0 ~len:n out ~at:header_bytes in
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
  let l = Branch_stream.layout program in
  let n_blocks = ru32 bytes 8 in
  if n_blocks <> Program.n_blocks program then
    corrupt
      (Printf.sprintf "program mismatch (%d blocks recorded, %d here)" n_blocks
         (Program.n_blocks program));
  if ru32 bytes 12 <> seed_lo seed || ru32 bytes 16 <> seed_hi seed then
    corrupt "seed mismatch";
  let n_events = (ru32 bytes 24 lsl 32) lor ru32 bytes 20 in
  let n_bits = ru32 bytes 32 in
  let plen = payload_length l ~n_events ~n_bits in
  if total <> header_bytes + plen + 4 then corrupt "truncated payload";
  if not (crc_holds bytes ~pos:header_bytes ~len:plen) then corrupt "payload checksum mismatch";
  match Branch_stream.of_packed l bytes ~at:header_bytes ~n:n_events with
  | Ok events -> events
  | Error reason -> corrupt reason

(* The wire form of a recording slice — the daemon's Events frame body.
   Same bit packing and checksum discipline as the file, but no identity
   header: on the wire, identity was already pinned by the session Hello.

       u32 n_events | u32 n_bits | payload | u32 crc32(payload) *)

let encode_batch ~program events ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Branch_stream.length events then
    invalid_arg "Event_log.encode_batch: range outside the recording";
  let l = Branch_stream.layout program in
  let n_bits = len * Branch_stream.field_bits l in
  let plen = (n_bits + 7) / 8 in
  let out = Bytes.create (8 + plen + 4) in
  wu32 out 0 len;
  wu32 out 4 n_bits;
  let stop = Branch_stream.pack l events ~pos ~len out ~at:8 in
  assert (stop = 8 + plen);
  seal_crc out ~pos:8 ~len:plen;
  out

(* The body may sit anywhere in a larger buffer (the daemon decodes
   straight from its connection buffer, where the next frame follows); the
   checks are the same, and nothing of [bytes] is kept after the call. *)
let decode_batch ?layout ?(pos = 0) ?len bytes ~program ~into =
  let len = match len with Some len -> len | None -> Bytes.length bytes - pos in
  if pos < 0 || len < 0 || pos > Bytes.length bytes - len then
    invalid_arg "Event_log.decode_batch: body outside the buffer";
  let l =
    match layout with
    | None -> Branch_stream.layout program
    | Some l when Branch_stream.layout_program l == program -> l
    | Some _ -> invalid_arg "Event_log.decode_batch: layout of another program"
  in
  if len < 12 then corrupt "truncated batch";
  let n_events = ru32 bytes pos in
  let n_bits = ru32 bytes (pos + 4) in
  let plen = payload_length l ~n_events ~n_bits in
  if len <> 8 + plen + 4 then corrupt "truncated batch payload";
  if not (crc_holds bytes ~pos:(pos + 8) ~len:plen) then corrupt "batch payload checksum mismatch";
  match Branch_stream.append_packed l bytes ~at:(pos + 8) ~n:n_events into with
  | Ok () -> n_events
  | Error reason -> corrupt reason

let write_file ~path ~program ~seed events =
  let data = encode ~program ~seed events in
  Io.write_atomic ~path data;
  Bytes.length data

(* Read straight into bytes: [decode] copies the payload it keeps, so a
   string read and then copied to bytes would be a third copy of it. *)
let read_file ~path ~program ~seed =
  let ic = open_in_bin path in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let b = Bytes.create (in_channel_length ic) in
        really_input ic b 0 (Bytes.length b);
        b)
  in
  decode data ~program ~seed
