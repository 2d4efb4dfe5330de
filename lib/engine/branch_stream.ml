(* The abstract branch-event stream of the paper's substitution table:
   every selection algorithm consumes only (block, taken?, target) plus
   static layout, so the hot loop does not care whether events come from
   the live interpreter or a recording.  Events are delivered through the
   caller's reusable [Interp.step] record — same discipline as the step
   loop itself — so a stream costs no allocation per event. *)

open Regionsel_isa

(* One shift each rejects every out-of-range value, negatives included:
   a block id must fit 31 bits and [next + 1] 30. *)
let[@inline] fits ~block_id ~next = block_id lsr 31 = 0 && (next + 1) lsr 30 = 0

(* Packed fields, the codec's form of an event.  One event is one
   [width]-bit field: [kb] bits of block id, the taken bit, then [kn] bits
   of successor code (0 = halt, else block id + 1), so the field is
   [((block_id lsl 1 lor taken) lsl kn) lor code].  A layout refuses
   fields wider than 56 bits, so every field is one [read56].

   [addr] maps each successor code to its address (code 0 is
   [Addr.none]).  It is built on first use and kept with the layout, so a
   caller that keeps its layout (a daemon session) builds it once, and an
   encoder, which needs none, never pays for it.  It is published in one
   write. *)
type layout = {
  program : Program.t;
  n_blocks : int;
  kn : int;
  width : int;
  mutable addr : int array; (* [||] until built; [n_blocks + 1] entries *)
}

(* Bits to represent every value in [0, max]. *)
let bits_for max =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  if max = 0 then 1 else go 0 max

let layout program =
  let n_blocks = Program.n_blocks program in
  let kn = bits_for n_blocks in
  let width = bits_for (n_blocks - 1) + 1 + kn in
  if width > 56 then invalid_arg "Branch_stream.layout: more than 2^27 blocks";
  { program; n_blocks; kn; width; addr = [||] }

let addr l =
  if Array.length l.addr = 0 then
    l.addr <-
      Array.init (l.n_blocks + 1) (fun c ->
          if c = 0 then Addr.none else (Program.block_of_id l.program (c - 1)).Block.start);
  l.addr

let layout_program l = l.program
let field_bits l = l.width

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* The [64 - k] bits (8 <= k <= 63) at bit [bit] of [b], most
   significant first, where [b] holds 8 bytes from byte [bit lsr 3]: one
   unaligned big-endian 64-bit load and two shifts.  Callers that read
   many fields of one width pass [k] precomputed. *)
let[@inline] read56 b bit k =
  let w = get64u b (bit lsr 3) in
  let w = if Sys.big_endian then w else bswap64 w in
  Int64.to_int (Int64.shift_right_logical (Int64.shift_left w (bit land 7)) k)

(* The [k] <= 56 bits at bit [bit] anywhere in [b]: the last bits of a
   buffer, whose 8-byte window would start past byte [last], fold their
   bytes one at a time. *)
let read_bits b ~last bit k =
  if bit lsr 3 <= last then read56 b bit (64 - k)
  else begin
    let first = bit lsr 3 and stop = (bit + k - 1) lsr 3 in
    let acc = ref (Bytes.get_uint8 b first land (0xFF lsr (bit land 7))) in
    for p = first + 1 to stop do
      acc := (!acc lsl 8) lor Bytes.get_uint8 b p
    done;
    !acc lsr ((8 - ((bit + k) land 7)) land 7)
  end

(* OR a field of [width] <= 56 bits into [b] at bit [bit], where [b]'s
   bits from [bit] on are zero and [b] holds 8 bytes from byte [bit lsr
   3]: one unaligned load, an or and one store. *)
let[@inline] write56 b bit width f =
  let at = bit lsr 3 in
  let w = get64u b at in
  let w = if Sys.big_endian then w else bswap64 w in
  let w = Int64.logor w (Int64.shift_left (Int64.of_int f) (64 - width - (bit land 7))) in
  set64u b at (if Sys.big_endian then w else bswap64 w)

(* A recording is bound ([bound = Some l]) or not.

   Bound, the one form the system keeps: position [i] is the field at bit
   [(i - base) * width] of [data], back to back, followed by zeros and at
   least 8 bytes of padding, so each field is one [read56] and each
   append ORs into zeros.  Positions are absolute; those below [released]
   are gone for every reader, and their bytes are reclaimed lazily, when
   an append that would grow the buffer first slides the retained tail
   down.  [base] is always a multiple of 8, so [8 * width] bits of
   positions are whole bytes and the slide is one [Bytes.blit].

   Unbound: a [recorder ()] nothing has bound yet, fed by hand, holds one
   word per event in [slots],

       ((next + 1) lsl 32) lor (block_id lsl 1) lor taken

   with the successor address in bits 32-61 ([Addr.none] is 0 there).  It
   takes only appends; [base] and [released] stay 0.

   [gen] counts recycles and bindings, so a stream can tell that its
   recording was emptied or changed form under it. *)
type events = {
  mutable slots : int array; (* unbound only *)
  mutable data : Bytes.t; (* bound only *)
  mutable bound : layout option;
  mutable base : int; (* absolute position of the first field in [data] *)
  mutable released : int; (* first position still readable *)
  mutable len : int; (* absolute length *)
  mutable gen : int; (* recycles and bindings so far *)
}

type t = Interp.step -> bool

(* Bytes that hold [fields] fields of [width] bits and the padding. *)
let[@inline] bytes_for width fields = (((fields * width) + 7) lsr 3) + 8

let recorder ?(capacity = 1024) () =
  if capacity < 0 then invalid_arg "Branch_stream.recorder: negative capacity";
  { slots = Array.make capacity 0; data = Bytes.empty; bound = None; base = 0; released = 0;
    len = 0; gen = 0 }

let capacity ev =
  match ev.bound with
  | None -> Array.length ev.slots
  | Some l -> (Bytes.length ev.data - 8) * 8 / l.width

let storage_bytes ev =
  match ev.bound with None -> 8 * Array.length ev.slots | Some _ -> Bytes.length ev.data

(* An unbound recording's word capacity, in fields, sizes its first
   buffer; a bound one keeps its buffer, all zeros while it is empty, and
   holds as many fields of the new width as fit. *)
let bind ev l =
  if ev.len = 0 then begin
    ignore (addr l);
    if Option.is_none ev.bound then begin
      ev.data <- Bytes.make (bytes_for l.width (Array.length ev.slots)) '\000';
      ev.slots <- [||]
    end;
    ev.bound <- Some l;
    ev.gen <- ev.gen + 1
  end

(* Room for [n] more fields: first by sliding the retained tail down to
   the multiple of 8 at or below [released] (zeroing the bytes it
   uncovers), and only if that is not enough by growing to twice the
   capacity or the room needed, whichever is more, keeping only the tail.
   Either way the capacity stays below twice the most the recording had
   to hold at once, plus 8 fields. *)
let compact_or_grow ev l n =
  let width = l.width and from = ev.released land lnot 7 in
  let used = (((ev.len - ev.base) * width) + 7) lsr 3 in
  let skip = ((from - ev.base) * width) lsr 3 in
  let keep = ev.len - from in
  if bytes_for width (keep + n) <= Bytes.length ev.data then begin
    Bytes.blit ev.data skip ev.data 0 (used - skip);
    Bytes.fill ev.data (used - skip) skip '\000'
  end
  else begin
    let data = Bytes.make (bytes_for width (max (keep + n) (max 16 (2 * capacity ev)))) '\000' in
    Bytes.blit ev.data skip data 0 (used - skip);
    ev.data <- data
  end;
  ev.base <- from

let[@inline] make_room ev l n =
  if bytes_for l.width (ev.len - ev.base + n) > Bytes.length ev.data then compact_or_grow ev l n

(* An append to a bound recording: one field past the last, into the
   zeros. *)
let append_field ev l ~block_id ~taken ~next =
  let code = Program.block_id l.program next + 1 in
  if block_id < 0 || block_id >= l.n_blocks || (code = 0 && next <> Addr.none) then
    invalid_arg "Branch_stream.append_event: block id or successor outside the bound program";
  make_room ev l 1;
  write56 ev.data ((ev.len - ev.base) * l.width) l.width
    ((((block_id lsl 1) lor Bool.to_int taken) lsl l.kn) lor code);
  ev.len <- ev.len + 1

(* Word slots grow by doubling, with a copy loop typed [int array] rather
   than [Array.blit], which into a major-heap array goes through the
   generic per-element write barrier even for ints. *)
let grow_slots ev =
  let grown = Array.make (max 16 (2 * Array.length ev.slots)) 0 in
  for i = 0 to ev.len - 1 do
    Array.unsafe_set grown i (Array.unsafe_get ev.slots i)
  done;
  ev.slots <- grown

let[@inline] append_event ev ~block_id ~taken ~next =
  match ev.bound with
  | Some l -> append_field ev l ~block_id ~taken ~next
  | None ->
    if not (fits ~block_id ~next) then
      invalid_arg "Branch_stream.append_event: block id or successor out of range";
    if ev.len = Array.length ev.slots then grow_slots ev;
    Array.unsafe_set ev.slots ev.len
      (((next + 1) lsl 32) lor (block_id lsl 1) lor Bool.to_int taken);
    ev.len <- ev.len + 1

let[@inline] append ev (s : Interp.step) =
  append_event ev ~block_id:s.Interp.block_id ~taken:s.Interp.taken ~next:s.Interp.next

let length ev = ev.len
let released ev = ev.released

let bound_only what ev =
  match ev.bound with
  | Some l -> l
  | None -> invalid_arg ("Branch_stream." ^ what ^ ": an unbound recording takes only appends")

let release ev upto =
  ignore (bound_only "release" ev);
  if upto > ev.len then invalid_arg "Branch_stream.release: past the recording's length";
  if upto > ev.released then ev.released <- upto

let recycle ev =
  let l = bound_only "recycle" ev in
  Bytes.fill ev.data 0 ((((ev.len - ev.base) * l.width) + 7) lsr 3) '\000';
  ev.base <- 0;
  ev.released <- 0;
  ev.len <- 0;
  ev.gen <- ev.gen + 1

(* The getters check the retained range themselves, which also bounds
   the slot or the field, so the load needs no second check. *)
let[@inline] retained ev i =
  if i < ev.released || i >= ev.len then invalid_arg "Branch_stream: position not retained"

let[@inline] field ev l i =
  retained ev i;
  read56 ev.data ((i - ev.base) * l.width) (64 - l.width)

let[@inline] slot ev i =
  retained ev i;
  Array.unsafe_get ev.slots i

let get_block_id ev i =
  match ev.bound with
  | None -> (slot ev i lsr 1) land 0x7FFF_FFFF
  | Some l -> field ev l i lsr (l.kn + 1)

let get_taken ev i =
  match ev.bound with
  | None -> slot ev i land 1 = 1
  | Some l -> (field ev l i lsr l.kn) land 1 = 1

let get_next ev i =
  match ev.bound with
  | None -> (slot ev i lsr 32) - 1
  | Some l -> Array.unsafe_get (addr l) (field ev l i land ((1 lsl l.kn) - 1))

let equal a b =
  a.len = b.len && a.released = b.released
  &&
  let rec go i =
    i >= a.len
    || get_block_id a i = get_block_id b i
       && get_taken a i = get_taken b i
       && get_next a i = get_next b i
       && go (i + 1)
  in
  go a.released

let stale ev ~gen =
  if ev.gen <> gen then invalid_arg "Branch_stream: replay of a recording recycled or bound since"
  else invalid_arg "Branch_stream: replay behind the released events"

(* Replaying holds one mutable cursor in the closure, an absolute
   position; past the end the stream reports a halt, exactly like an
   interpreter whose program finished.  The form is checked once, here:
   it changes only at a binding, which the [gen] test catches.  A bound
   recording's length, buffer and base are read at each pull, as appends
   grow and compact it under the reader. *)
let of_events ev : t =
  let cursor = ref 0 and gen = ev.gen in
  match ev.bound with
  | None ->
    fun s ->
      let i = !cursor in
      if ev.gen <> gen then stale ev ~gen
      else if i >= ev.len then false
      else begin
        let p = Array.unsafe_get ev.slots i in
        s.Interp.block_id <- (p lsr 1) land 0x7FFF_FFFF;
        s.Interp.taken <- p land 1 = 1;
        s.Interp.next <- (p lsr 32) - 1;
        cursor := i + 1;
        true
      end
  | Some l ->
    let kn = l.kn and width = l.width and addr = addr l in
    let drop = 64 - width and kb = kn + 1 and taken = 1 lsl kn in
    let mask = taken - 1 in
    fun s ->
      let i = !cursor in
      if i < ev.released || ev.gen <> gen then stale ev ~gen
      else if i >= ev.len then false
      else begin
        let f = read56 ev.data ((i - ev.base) * width) drop in
        s.Interp.block_id <- f lsr kb;
        s.Interp.taken <- f land taken <> 0;
        s.Interp.next <- Array.unsafe_get addr (f land mask);
        cursor := i + 1;
        true
      end

let next_into (t : t) s = t s

(* The fields of [len] positions from bit [src] of a padded buffer as
   the payload at byte [at] of [out], zero-padded to a whole byte: 32
   bits at a time, with no per-event work and no allocation. *)
let copy_fields data ~src ~bits out ~at =
  let words = bits lsr 5 and rest = bits land 31 in
  for j = 0 to words - 1 do
    Bytes.set_int32_be out (at + (4 * j)) (Int32.of_int (read56 data (src + (32 * j)) 32))
  done;
  if rest > 0 then begin
    let left = read56 data (src + (32 * words)) (64 - rest) lsl (32 - rest) in
    for b = 0 to ((rest + 7) lsr 3) - 1 do
      Bytes.set_uint8 out (at + (4 * words) + b) ((left lsr (24 - (8 * b))) land 0xFF)
    done
  end;
  at + ((bits + 7) lsr 3)

(* Whether a recording bound to [b] holds [l]'s fields: the same program,
   or one whose block starts are the same, decided by one pass over the
   two successor tables, not one over the events.  Equal tables have
   equal lengths, so equal field widths. *)
let same_starts (l : layout) (b : layout) = b.program == l.program || addr b = addr l

(* Fields that are already [l]'s are copied as they stand.  Anything else
   (word slots, another program's fields) is re-encoded event by event
   through the checks of a bound append, into a scratch recording. *)
let pack (l : layout) ev ~pos ~len out ~at =
  if pos < ev.released || len < 0 || pos > ev.len - len then
    invalid_arg "Branch_stream.pack: range outside the retained events";
  match ev.bound with
  | Some b when same_starts l b ->
    copy_fields ev.data ~src:((pos - ev.base) * l.width) ~bits:(len * l.width) out ~at
  | Some _ | None ->
    let tmp = recorder ~capacity:0 () in
    bind tmp l;
    make_room tmp l len;
    for i = pos to pos + len - 1 do
      append_event tmp ~block_id:(get_block_id ev i) ~taken:(get_taken ev i)
        ~next:(get_next ev i)
    done;
    copy_fields tmp.data ~src:0 ~bits:(len * l.width) out ~at

(* The verdict on [n] fields from byte [at] of [b], from their largest
   head ([block id lsl 1 lor taken]) and largest successor code, with no
   exit per field: a block-id fault is named whenever any field has one.
   A field whose 8-byte window lies inside [b] is one [read56]; only the
   fields in the last 8 bytes of [b] take [read_bits]' fold. *)
let find_fault (l : layout) b ~at ~n =
  let kn = l.kn and width = l.width in
  let mask = (1 lsl kn) - 1 and drop = 64 - width and bit0 = 8 * at in
  let last = Bytes.length b - 8 in
  let fast = max 0 (min n (((8 * (last + 1)) - bit0 + width - 1) / width)) in
  let head_max = ref 0 and code_max = ref 0 in
  let see f =
    if f lsr kn > !head_max then head_max := f lsr kn;
    if f land mask > !code_max then code_max := f land mask
  in
  for i = 0 to fast - 1 do
    see (read56 b (bit0 + (i * width)) drop)
  done;
  for i = fast to n - 1 do
    see (read_bits b ~last (bit0 + (i * width)) width)
  done;
  if !head_max lsr 1 >= l.n_blocks then Some "block id outside the program"
  else if !code_max > l.n_blocks then Some "successor code outside the program"
  else None

(* OR [bits] bits from byte-aligned bit [src] of [b] into [data] from
   bit [dst], where [data]'s bits from [dst] on are zero and padded: whole
   bytes by [Bytes.blit] when [dst] is byte-aligned too, otherwise 56 bits
   at a time.  The bits past the last field are never copied. *)
let blit_bits b ~src data ~dst ~bits =
  let last = Bytes.length b - 8 in
  let k = ref 0 in
  if dst land 7 = 0 then begin
    Bytes.blit b (src lsr 3) data (dst lsr 3) (bits lsr 3);
    k := bits land lnot 7
  end;
  while !k < bits do
    let w = min 56 (bits - !k) in
    write56 data (dst + !k) w (read_bits b ~last (src + !k) w);
    k := !k + w
  done

(* The batch is checked before any of it is written, so a refused one
   leaves [into] as it was, its form included: callers feed live replay
   streams. *)
let append_packed (l : layout) b ~at ~n into =
  if at < 0 || n < 0 || n > max_int / l.width || ((n * l.width) + 7) / 8 > Bytes.length b - at
  then invalid_arg "Branch_stream: payload outside the buffer";
  (match into.bound with
  | None when into.len > 0 ->
    invalid_arg "Branch_stream.append_packed: an unbound recording takes only appends"
  | Some b when b.program != l.program ->
    invalid_arg "Branch_stream.append_packed: a recording bound to another program"
  | None | Some _ -> ());
  match find_fault l b ~at ~n with
  | Some reason -> Error reason
  | None ->
    if Option.is_none into.bound then bind into l;
    make_room into l n;
    blit_bits b ~src:(8 * at) into.data ~dst:((into.len - into.base) * l.width) ~bits:(n * l.width);
    into.len <- into.len + n;
    Ok ()
