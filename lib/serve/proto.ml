(* The daemon's wire protocol: a length-prefixed framing of the existing
   REVL event codec.

   Every frame is [u32 length | u8 kind | payload], length counting the
   kind byte.  Integers are big-endian, like every persisted artifact in
   this repo; 64-bit values ride as a high/low u32 pair (the event log's
   seed convention).  The one payload the protocol does not define itself
   is the Events body, which is exactly [Event_log.encode_batch] — the
   REVL bit packing plus its own CRC32, so corrupt event data is caught
   by the same checksum discipline as an on-disk recording.

   Anything malformed raises [Protocol_error] — a typed failure the
   server answers with a Reject frame, never a crash.  The fuzzer's
   [--frames] axis drives arbitrary garbage through [Dechunker] to pin
   that. *)

exception Protocol_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

let max_frame = 1 lsl 24
(* 16 MiB: comfortably above the largest Events batch a client sends
   (the CLI chunks at thousands of events, ~2 bytes each), small enough
   that a corrupt length prefix cannot make the daemon buffer gigabytes. *)

let max_string = 1 lsl 16

let max_text = max_frame - 16
(* Export replies (Data, Result) can be far larger than any identity
   string — a Prometheus snapshot over many tenants x 256 windows runs
   to megabytes — so they get the whole frame budget, not [max_string]. *)

type hello = {
  h_tenant : string;
  h_bench : string;
  h_policy : string;
  h_seed : int64;
  h_max_steps : int;
}

type reject_code =
  | Bad_frame  (** Malformed or out-of-sequence frame. *)
  | Unknown_bench
  | Unknown_policy
  | Tenants_saturated
  | Budget_saturated
  | Busy_tenant  (** The tenant is already attached to a live connection. *)
  | Corrupt_events  (** An Events batch failed its checksum or validation. *)

type msg =
  | Hello of hello
  | Events of bytes  (** A still-encoded [Event_log] batch body. *)
  | Fin
  | Ctrl of string
  | Welcome of { resume_step : int; session : string }
  | Reject of { code : reject_code; detail : string }
  | Result of string  (** [Run_metrics.to_json] of the finished tenant. *)
  | Data of string  (** A Ctrl command's reply body. *)

let reject_code_to_string = function
  | Bad_frame -> "bad-frame"
  | Unknown_bench -> "unknown-bench"
  | Unknown_policy -> "unknown-policy"
  | Tenants_saturated -> "tenants-saturated"
  | Budget_saturated -> "budget-saturated"
  | Busy_tenant -> "busy-tenant"
  | Corrupt_events -> "corrupt-events"

let reject_codes =
  [|
    Bad_frame; Unknown_bench; Unknown_policy; Tenants_saturated; Budget_saturated;
    Busy_tenant; Corrupt_events;
  |]

let code_of_reject c =
  let rec go i = if reject_codes.(i) == c then i else go (i + 1) in
  go 0

(* --- Encoding --------------------------------------------------------- *)

let bu32 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (v land 0xFF))

let bu64 buf v =
  bu32 buf ((v asr 32) land 0x7FFFFFFF);
  bu32 buf (v land 0xFFFFFFFF)

let bseed buf seed =
  bu32 buf (Int64.to_int (Int64.shift_right_logical seed 32));
  bu32 buf (Int64.to_int (Int64.logand seed 0xFFFFFFFFL))

let bstring buf s =
  if String.length s > max_string then invalid_arg "Proto: string too long";
  bu32 buf (String.length s);
  Buffer.add_string buf s

let btext buf s =
  if String.length s > max_text then invalid_arg "Proto: text too long";
  bu32 buf (String.length s);
  Buffer.add_string buf s

let events_kind = 2

let kind_of = function
  | Hello _ -> 1
  | Events _ -> events_kind
  | Fin -> 3
  | Ctrl _ -> 4
  | Welcome _ -> 10
  | Reject _ -> 11
  | Result _ -> 12
  | Data _ -> 13

let encode msg =
  let body = Buffer.create 64 in
  (match msg with
  | Hello h ->
    bstring body h.h_tenant;
    bstring body h.h_bench;
    bstring body h.h_policy;
    bseed body h.h_seed;
    bu64 body h.h_max_steps
  | Events b -> Buffer.add_bytes body b
  | Fin -> ()
  | Ctrl cmd -> bstring body cmd
  | Welcome { resume_step; session } ->
    bu64 body resume_step;
    bstring body session
  | Reject { code; detail } ->
    Buffer.add_char body (Char.chr (code_of_reject code));
    bstring body detail
  | Result json -> btext body json
  | Data text -> btext body text);
  let blen = Buffer.length body in
  if 1 + blen > max_frame then invalid_arg "Proto: frame too large";
  let out = Buffer.create (5 + blen) in
  bu32 out (1 + blen);
  Buffer.add_char out (Char.chr (kind_of msg));
  Buffer.add_buffer out body;
  Buffer.to_bytes out

(* --- Decoding --------------------------------------------------------- *)

(* A cursor over one frame body; every read is bounds-checked so a short
   or padded payload is a typed error. *)
type cursor = { c_bytes : Bytes.t; c_end : int; mutable c_pos : int }

let need cur n what = if cur.c_pos + n > cur.c_end then fail "truncated %s" what

let ru8 cur what =
  need cur 1 what;
  let v = Char.code (Bytes.get cur.c_bytes cur.c_pos) in
  cur.c_pos <- cur.c_pos + 1;
  v

let ru32 cur what =
  need cur 4 what;
  let p = cur.c_pos in
  let b = cur.c_bytes in
  cur.c_pos <- p + 4;
  (Char.code (Bytes.get b p) lsl 24)
  lor (Char.code (Bytes.get b (p + 1)) lsl 16)
  lor (Char.code (Bytes.get b (p + 2)) lsl 8)
  lor Char.code (Bytes.get b (p + 3))

(* [bu64] masks the high word to 0x7FFFFFFF and a legitimate OCaml int
   never has hi >= 0x40000000 (63-bit ints: v asr 32 <= 0x3FFFFFFF), so
   anything above is a crafted frame — on decode it would drop bit 31
   and land bit 30 in the sign bit, yielding wrapped or negative values.
   Reject it instead. *)
let ru64 cur what =
  let hi = ru32 cur what in
  let lo = ru32 cur what in
  if hi >= 0x40000000 then fail "%s value out of range (hi word 0x%08X)" what hi;
  (hi lsl 32) lor lo

let rseed cur what =
  let hi = ru32 cur what in
  let lo = ru32 cur what in
  Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

let rbounded cur what ~limit =
  let n = ru32 cur what in
  if n > limit then fail "%s string longer than %d bytes" what limit;
  need cur n what;
  let s = Bytes.sub_string cur.c_bytes cur.c_pos n in
  cur.c_pos <- cur.c_pos + n;
  s

let rstring cur what = rbounded cur what ~limit:max_string
let rtext cur what = rbounded cur what ~limit:max_text

let finished cur what =
  if cur.c_pos <> cur.c_end then fail "%s frame has %d trailing bytes" what (cur.c_end - cur.c_pos)

(* A frame's length prefix, refused before anything is sized from it. *)
let frame_length b p =
  let flen = Int32.to_int (Bytes.get_int32_be b p) land 0xFFFF_FFFF in
  if flen < 1 || flen > max_frame then fail "frame length %d out of bounds" flen;
  flen

(* Decode one frame body ([kind | payload], the length prefix already
   stripped and validated by the dechunker or [read_msg]). *)
let decode_frame bytes ~pos ~len =
  if len < 1 then fail "empty frame";
  let cur = { c_bytes = bytes; c_end = pos + len; c_pos = pos } in
  let kind = ru8 cur "kind" in
  let msg =
    match kind with
    | 1 ->
      let h_tenant = rstring cur "hello tenant" in
      let h_bench = rstring cur "hello bench" in
      let h_policy = rstring cur "hello policy" in
      let h_seed = rseed cur "hello seed" in
      let h_max_steps = ru64 cur "hello max_steps" in
      if h_max_steps < 0 then fail "negative max_steps";
      if h_tenant = "" then fail "empty tenant name";
      Hello { h_tenant; h_bench; h_policy; h_seed; h_max_steps }
    | 2 -> Events (Bytes.sub bytes cur.c_pos (cur.c_end - cur.c_pos))
    | 3 -> Fin
    | 4 -> Ctrl (rstring cur "ctrl command")
    | 10 ->
      let resume_step = ru64 cur "welcome resume_step" in
      if resume_step < 0 then fail "negative resume_step";
      let session = rstring cur "welcome session" in
      Welcome { resume_step; session }
    | 11 ->
      let c = ru8 cur "reject code" in
      if c >= Array.length reject_codes then fail "unknown reject code %d" c;
      let detail = rstring cur "reject detail" in
      Reject { code = reject_codes.(c); detail }
    | 12 -> Result (rtext cur "result json")
    | 13 -> Data (rtext cur "data body")
    | k -> fail "unknown frame kind %d" k
  in
  (match msg with Events _ -> () | _ -> finished cur "frame");
  msg

(* --- Incremental dechunking ------------------------------------------- *)

(* The server's per-connection parser: bytes arrive in whatever chunks
   the socket delivers; frames come out only when complete.  A peer that
   stalls mid-frame stalls only its own dechunker — the event loop never
   blocks on a partial frame.

   Frames are consumed by offset: [start] is the first byte not yet
   yielded as a frame, [stop] the end of what has landed, and yielding a
   frame moves only [start].  Bytes move only when more are fed and the
   room past [stop] is short: the unread tail (at most one partial frame
   once the frames are drained) slides to the front, and the buffer
   doubles only if that is not enough.  So an Events body yielded in
   place stays put until the next feed. *)
module Dechunker = struct
  type t = { mutable buf : Bytes.t; mutable start : int; mutable stop : int }

  type frame = Msg of msg | Events_at of { buf : Bytes.t; pos : int; len : int }

  let create () = { buf = Bytes.create 4096; start = 0; stop = 0 }
  let pending t = t.stop - t.start

  (* Room for [len] bytes past [stop]. *)
  let make_room t len =
    let keep = t.stop - t.start and cap = Bytes.length t.buf in
    if keep = 0 then begin
      t.start <- 0;
      t.stop <- 0
    end;
    if t.stop + len > cap then begin
      if keep + len <= cap then Bytes.blit t.buf t.start t.buf 0 keep
      else begin
        let size = ref cap in
        while keep + len > !size do
          size := !size * 2
        done;
        let bigger = Bytes.create !size in
        Bytes.blit t.buf t.start bigger 0 keep;
        t.buf <- bigger
      end;
      t.start <- 0;
      t.stop <- keep
    end

  let feed t bytes ~pos ~len =
    if len < 0 || pos < 0 || pos + len > Bytes.length bytes then
      invalid_arg "Dechunker.feed: range outside the buffer";
    make_room t len;
    Bytes.blit bytes pos t.buf t.stop len;
    t.stop <- t.stop + len

  let fill t ~max read =
    if max < 0 then invalid_arg "Dechunker.fill: negative size";
    make_room t max;
    let n = read t.buf t.stop max in
    if n < 0 || n > max then invalid_arg "Dechunker.fill: reader returned a bad count";
    t.stop <- t.stop + n;
    n

  let next_frame t =
    if t.stop - t.start < 4 then None
    else begin
      let flen = frame_length t.buf t.start in
      if t.stop - t.start < 4 + flen then None
      else begin
        let pos = t.start + 4 in
        let frame =
          if Char.code (Bytes.get t.buf pos) = events_kind then
            Events_at { buf = t.buf; pos = pos + 1; len = flen - 1 }
          else Msg (decode_frame t.buf ~pos ~len:flen)
        in
        t.start <- pos + flen;
        Some frame
      end
    end

  let next t =
    match next_frame t with
    | None -> None
    | Some (Msg msg) -> Some msg
    | Some (Events_at { buf; pos; len }) -> Some (Events (Bytes.sub buf pos len))
end

(* --- Blocking fd transport (client side, tests) ----------------------- *)

module Io = Regionsel_persist.Io

let write_msg fd msg =
  let data = encode msg in
  Io.write_all fd data ~pos:0 ~len:(Bytes.length data)

let read_msg fd =
  let hdr = Bytes.create 4 in
  match Io.read fd hdr ~pos:0 ~len:4 with
  | 0 -> None
  | n ->
    if not (if n < 4 then Io.really_read fd hdr ~pos:n ~len:(4 - n) else true) then
      fail "stream ended inside a frame header";
    let flen = frame_length hdr 0 in
    let body = Bytes.create flen in
    if not (Io.really_read fd body ~pos:0 ~len:flen) then fail "stream ended inside a frame";
    Some (decode_frame body ~pos:0 ~len:flen)
