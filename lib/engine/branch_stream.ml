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
   of successor code (0 = halt, else block id + 1).  The block id and taken
   bit (the field's head) are exactly the low word of a recording's slot,
   so the field is [(head lsl kn) lor code].  Block ids fit 31 bits, so a
   field fits the 63 bits of an int.

   A layout holds a program's widths, and once something decodes under
   it, the two tables every decoder reads: [addr], the address of each
   successor code (code 0 is [Addr.none]), and [succ_hi], the high word
   of a slot for every [kn]-bit code, so a decoded slot is
   [succ_hi.(code) lor head] with no lookup through the program.  Codes
   past [n_blocks] map to 0; the decoders refuse them by their running
   maximum, never per event.  The tables are built on first use and kept
   with the layout, so a caller that keeps its layout (a daemon session)
   builds them once, and an encoder, which needs none, never pays for
   them.  They are published in one write, so a reader sees all of them
   or none. *)
type tables = {
  addr : int array; (* successor code -> address, [n_blocks + 1] entries *)
  succ_hi : int array; (* every [kn]-bit code -> [(addr + 1) lsl 32] *)
  starts_fit : bool; (* every block start fits a slot *)
}

type layout = {
  program : Program.t;
  n_blocks : int;
  kn : int;
  width : int;
  mutable tables : tables option;
}

(* Bits to represent every value in [0, max]. *)
let bits_for max =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  if max = 0 then 1 else go 0 max

let layout program =
  let n_blocks = Program.n_blocks program in
  let kn = bits_for n_blocks in
  { program; n_blocks; kn; width = bits_for (n_blocks - 1) + 1 + kn; tables = None }

let tables l =
  match l.tables with
  | Some t -> t
  | None ->
    let addr =
      Array.init (l.n_blocks + 1) (fun c ->
          if c = 0 then Addr.none else (Program.block_of_id l.program (c - 1)).Block.start)
    in
    let succ_hi = Array.make (1 lsl l.kn) 0 in
    Array.iteri (fun c a -> succ_hi.(c) <- (a + 1) lsl 32) addr;
    let t =
      { addr; succ_hi; starts_fit = Array.for_all (fun next -> fits ~block_id:0 ~next) addr }
    in
    l.tables <- Some t;
    t

(* The tables a decoder writes slots from: a block start no slot can hold
   is refused before any field is read. *)
let decoder_tables l what =
  let t = tables l in
  if not t.starts_fit then
    invalid_arg ("Branch_stream." ^ what ^ ": a block start does not fit a slot");
  t

let layout_program l = l.program
let field_bits l = l.width

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* The [64 - k] bits (8 <= k <= 63) at bit [bit] of [b], most
   significant first, where [b] holds 8 bytes from byte [bit lsr 3]: one
   unaligned big-endian 64-bit load and two shifts.  Callers that read
   many fields of one width pass [k] precomputed. *)
let[@inline] read56 b bit k =
  let w = get64u b (bit lsr 3) in
  let w = if Sys.big_endian then w else bswap64 w in
  Int64.to_int (Int64.shift_right_logical (Int64.shift_left w (bit land 7)) k)

(* [read56] anywhere in [b]: the last fields of a buffer, whose 8-byte
   window would start past byte [last], fold their bytes one at a time. *)
let read_tail b bit k =
  let first = bit lsr 3 and stop = (bit + k - 1) lsr 3 in
  let acc = ref (Bytes.get_uint8 b first land (0xFF lsr (bit land 7))) in
  for p = first + 1 to stop do
    acc := (!acc lsl 8) lor Bytes.get_uint8 b p
  done;
  !acc lsr ((8 - ((bit + k) land 7)) land 7)

let[@inline] read_bits b ~last bit k =
  if bit lsr 3 > last then read_tail b bit k else read56 b bit (64 - k)

(* The field at bit [bit].  A field wider than 56 bits (a program of more
   than 2^27 blocks) takes two reads: the head, then the code. *)
let[@inline] read_field b ~last ~kn ~width bit =
  if width <= 56 then read_bits b ~last bit width
  else (read_bits b ~last bit (width - kn) lsl kn) lor read_bits b ~last (bit + width - kn) kn

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* OR a field of [width] <= 56 bits into [b] at bit [bit], where [b]'s
   bits from [bit] on are zero and [b] holds 8 bytes from byte [bit lsr
   3]: one unaligned load, an or and one store. *)
let[@inline] write56 b bit width f =
  let at = bit lsr 3 in
  let w = get64u b at in
  let w = if Sys.big_endian then w else bswap64 w in
  let w = Int64.logor w (Int64.shift_left (Int64.of_int f) (64 - width - (bit land 7))) in
  set64u b at (if Sys.big_endian then w else bswap64 w)

(* A packed backing: fields of at most 56 bits back to back from bit 0 of
   [data], then at least 8 zero bytes, so each field is one [read56], and
   the successor table of the layout they were made under.  Two kinds:
   - decoded ([bound = None], made by [of_packed]): its own copy of a
     validated payload, read-only;
   - bound ([bound = Some l], made by [bind]): append-only.  Each append
     is checked against [l]'s program and written as its field into the
     zero bytes past the last one; [data] doubles whenever the 8 bytes of
     padding would run short. *)
type view = {
  mutable data : Bytes.t;
  kn : int;
  width : int;
  addr : int array;
  bound : layout option;
}

(* In-memory recording, word backing: one int array, doubling on demand,
   one slot per event:

       ((next + 1) lsl 32) lor (block_id lsl 1) lor taken

   with the successor address in bits 32-61 ([Addr.none] is 0 there) and
   the dense block id with the taken flag in bits 0-31, so appending is
   one store and replaying is one load.  The low 32 bits are exactly the
   head of an event's packed field.  Slots past [len] are invisible to
   every reader, which is what lets a batch be written there and committed
   only once all of it is valid.

   Positions are absolute: slot [k] holds position [base + k].  Positions
   below [released] are gone for every reader; their slots are reclaimed
   lazily, when [reserve] slides the retained tail [released, len) to the
   front instead of growing.  [gen] counts recycles and bindings, so a
   stream can tell that its recording's word slots were emptied or
   dropped under it.  A recording that is never released or recycled
   keeps [base = released = 0] and reads exactly as a plain array.

   Packed backing ([packed = Some v]): the events are [v]'s fields,
   [slots] is empty and [base = released = 0].  A recording turns packed
   at most once (at [of_packed], or when [bind] binds it empty) and stays
   so for its whole life, so a replay opened on a packed recording needs
   no check per pull beyond its end.  Nothing of a packed recording is
   ever released, recycled or written as a batch: those raise before they
   change anything.  Appends check the backing first; every other write
   checks it once per call, or falls to an error through its slot test,
   as no slot index reaches the empty [slots]. *)
type events = {
  mutable slots : int array;
  mutable base : int; (* absolute position of slot 0 *)
  mutable released : int; (* first position still readable *)
  mutable len : int; (* absolute length *)
  mutable gen : int; (* recycles and bindings so far *)
  mutable packed : view option; (* [None] for word slots *)
}

type t = Interp.step -> bool

let recorder ?(capacity = 1024) () =
  if capacity < 0 then invalid_arg "Branch_stream.recorder: negative capacity";
  { slots = Array.make capacity 0; base = 0; released = 0; len = 0; gen = 0; packed = None }

(* The recording turns packed only while it is empty and on word slots,
   and only for fields a view can hold.  Its word capacity, in fields,
   sizes the first buffer. *)
let bind ev (l : layout) =
  if Option.is_none ev.packed && ev.len = 0 && l.width <= 56 then begin
    let t = tables l in
    if t.starts_fit then begin
      let fields = Array.length ev.slots in
      ev.packed <-
        Some
          { data = Bytes.make ((((fields * l.width) + 7) lsr 3) + 8) '\000'; kn = l.kn;
          width = l.width; addr = t.addr; bound = Some l };
      ev.slots <- [||];
      ev.base <- 0;
      ev.gen <- ev.gen + 1
    end
  end

(* Event [i] of a view as its word slot. *)
let view_word v i =
  let f = read56 v.data (i * v.width) (64 - v.width) in
  ((Array.unsafe_get v.addr (f land ((1 lsl v.kn) - 1)) + 1) lsl 32) lor (f lsr v.kn)

let refuse what v =
  invalid_arg
    ("Branch_stream." ^ what
    ^
    if Option.is_none v.bound then ": a decoded recording is read-only"
    else ": a bound recording takes only appends")

(* The check of a write other than an append: word slots only. *)
let words_only what ev = match ev.packed with Some v -> refuse what v | None -> ()

(* A copy loop typed [int array] rather than [Array.blit], which into a
   major-heap array goes through the generic per-element write barrier even
   for ints: growing a recording this way takes about half the time. *)
let move (src : int array) ~from (dst : int array) n =
  for i = 0 to n - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src (from + i))
  done

(* Room for [n] slots past [len]: first by dropping the released slots
   (sliding the retained tail to slot 0 in place — the forward copy is
   safe because the source lies above the destination), and only if that
   is not enough by growing to twice the capacity or the room needed,
   whichever is more, which keeps the retained tail and drops the
   released slots on the way. *)
let reserve ev n =
  if n < 0 then invalid_arg "Branch_stream.reserve: negative count";
  words_only "reserve" ev;
  let cap = Array.length ev.slots in
  if ev.len - ev.base + n > cap then begin
    let from = ev.released - ev.base and keep = ev.len - ev.released in
    let size = max (keep + n) (max 16 (2 * cap)) in
    if keep + n <= cap then move ev.slots ~from ev.slots keep
    else begin
      let grown = Array.make size 0 in
      move ev.slots ~from grown keep;
      ev.slots <- grown
    end;
    ev.base <- ev.released
  end

let[@inline] slot ~block_id ~taken ~next =
  ((next + 1) lsl 32) lor (block_id lsl 1) lor Bool.to_int taken

let[@inline] set_pending ev i ~block_id ~taken ~next =
  if not (fits ~block_id ~next) then
    invalid_arg "Branch_stream.set_pending: block id or successor out of range";
  let k = ev.len - ev.base + i in
  if i < 0 || k >= Array.length ev.slots then begin
    match ev.packed with
    | Some v -> refuse "set_pending" v
    | None -> invalid_arg "Branch_stream.set_pending: slot not reserved"
  end;
  Array.unsafe_set ev.slots k (slot ~block_id ~taken ~next)

let commit ev n =
  words_only "commit" ev;
  if n < 0 || ev.len - ev.base + n > Array.length ev.slots then
    invalid_arg "Branch_stream.commit: more events than reserved";
  ev.len <- ev.len + n

(* An append to a packed recording: one field past the last, into the
   zero padding, after growing the buffer if the padding would run
   short. *)
let append_field ev v ~block_id ~taken ~next =
  match v.bound with
  | None -> refuse "append_event" v
  | Some l ->
    let code = Program.block_id l.program next + 1 in
    if block_id < 0 || block_id >= l.n_blocks || (code = 0 && next <> Addr.none) then
      invalid_arg "Branch_stream.append_event: block id or successor outside the bound program";
    let i = ev.len and width = v.width in
    let need = ((((i + 1) * width) + 7) lsr 3) + 8 in
    if need > Bytes.length v.data then begin
      let data = Bytes.make (max need (2 * Bytes.length v.data)) '\000' in
      Bytes.blit v.data 0 data 0 (Bytes.length v.data);
      v.data <- data
    end;
    write56 v.data (i * width) width ((((block_id lsl 1) lor Bool.to_int taken) lsl v.kn) lor code);
    ev.len <- i + 1

let[@inline] append_event ev ~block_id ~taken ~next =
  match ev.packed with
  | Some v -> append_field ev v ~block_id ~taken ~next
  | None ->
    if not (fits ~block_id ~next) then
      invalid_arg "Branch_stream.append_event: block id or successor out of range";
    if ev.len - ev.base = Array.length ev.slots then reserve ev 1;
    Array.unsafe_set ev.slots (ev.len - ev.base) (slot ~block_id ~taken ~next);
    ev.len <- ev.len + 1

let[@inline] append ev (s : Interp.step) =
  append_event ev ~block_id:s.Interp.block_id ~taken:s.Interp.taken ~next:s.Interp.next

let length ev = ev.len
let released ev = ev.released
let capacity ev =
  match ev.packed with
  | None -> Array.length ev.slots
  | Some { bound = None; _ } -> 0
  | Some v -> (Bytes.length v.data - 8) * 8 / v.width

let release ev upto =
  words_only "release" ev;
  if upto > ev.len then invalid_arg "Branch_stream.release: past the recording's length";
  if upto > ev.released then ev.released <- upto

let recycle ev =
  words_only "recycle" ev;
  ev.base <- 0;
  ev.released <- 0;
  ev.len <- 0;
  ev.gen <- ev.gen + 1

(* The getters check the retained range themselves, which also bounds
   the slot, so the load needs no second check. *)
let not_retained () = invalid_arg "Branch_stream: position not retained"

let[@inline] get_slot ev i =
  if i < ev.released || i >= ev.len then not_retained ();
  match ev.packed with
  | None -> Array.unsafe_get ev.slots (i - ev.base)
  | Some v -> view_word v i

let[@inline] get_block_id ev i = (get_slot ev i lsr 1) land 0x7FFF_FFFF
let[@inline] get_taken ev i = get_slot ev i land 1 = 1
let[@inline] get_next ev i = (get_slot ev i lsr 32) - 1

let equal a b =
  a.len = b.len && a.released = b.released
  &&
  let rec go i = i >= a.len || (get_slot a i = get_slot b i && go (i + 1)) in
  go a.released

let stale ev ~gen =
  if ev.gen <> gen then invalid_arg "Branch_stream: replay of a recording recycled or bound since"
  else invalid_arg "Branch_stream: replay behind the released events"

(* A packed field [f] into the step record. *)
let[@inline] deliver (s : Interp.step) f ~kb ~taken ~mask addr =
  s.Interp.block_id <- f lsr kb;
  s.Interp.taken <- f land taken <> 0;
  s.Interp.next <- Array.unsafe_get addr (f land mask)

(* Replaying holds one mutable cursor in the closure, an absolute
   position; past the end the stream reports a halt, exactly like an
   interpreter whose program finished.  The backing is checked once,
   here.  Over word slots, the one extra branch per event guards the
   storage a release, a recycle or a binding took away.  A decoded view
   is read-only, so its length and bytes are fixed; a bound one only
   grows, so its replay reads the length and the buffer at each pull, and
   nothing under the cursor can go away. *)
let of_events ev : t =
  let cursor = ref 0 in
  match ev.packed with
  | None ->
    let gen = ev.gen in
    fun s ->
      let i = !cursor in
      if i < ev.released || ev.gen <> gen then stale ev ~gen
      else if i >= ev.len then false
      else begin
        let p = Array.unsafe_get ev.slots (i - ev.base) in
        s.Interp.block_id <- (p lsr 1) land 0x7FFF_FFFF;
        s.Interp.taken <- p land 1 = 1;
        s.Interp.next <- (p lsr 32) - 1;
        cursor := i + 1;
        true
      end
  | Some v ->
    let kn = v.kn and width = v.width and addr = v.addr in
    let drop = 64 - width and kb = kn + 1 and taken = 1 lsl kn and mask = (1 lsl kn) - 1 in
    if Option.is_none v.bound then begin
      let n = ev.len and data = v.data in
      fun s ->
        let i = !cursor in
        if i >= n then false
        else begin
          deliver s (read56 data (i * width) drop) ~kb ~taken ~mask addr;
          cursor := i + 1;
          true
        end
    end
    else fun s ->
      let i = !cursor in
      if i >= ev.len then false
      else begin
        deliver s (read56 v.data (i * width) drop) ~kb ~taken ~mask addr;
        cursor := i + 1;
        true
      end

let next_into (t : t) s = t s

(* A view's fields [pos .. pos+len-1] as the payload at byte [at] of
   [out], zero-padded to a whole byte.  For a layout whose block starts
   are the view's successor addresses ([same_starts]), every field is
   already the one [pack] would write, so the bits are copied 32 at a
   time, with no per-event work and no allocation. *)
let copy_fields v ~pos ~len out ~at =
  let src = pos * v.width and bits = len * v.width in
  let words = bits lsr 5 and rest = bits land 31 in
  for j = 0 to words - 1 do
    Bytes.set_int32_be out (at + (4 * j)) (Int32.of_int (read56 v.data (src + (32 * j)) 32))
  done;
  if rest > 0 then begin
    let left = read56 v.data (src + (32 * words)) (64 - rest) lsl (32 - rest) in
    for b = 0 to ((rest + 7) lsr 3) - 1 do
      Bytes.set_uint8 out (at + (4 * words) + b) ((left lsr (24 - (8 * b))) land 0xFF)
    done
  end;
  at + ((bits + 7) lsr 3)

(* The pack kernel over word slots: slots [off .. off+len-1] of [slots]
   as the payload at byte [at] of [out], zero-padded to a whole byte, one
   load per event.  Fields accumulate in [acc] ([nacc] bits pending, fewer
   than 32) and leave as big-endian 32-bit words.  A put of at most 32
   bits leaves at most 63 pending, one word's worth to store; the bits
   above [nacc] are stale and fall off the top or out of the stored word.
   A field wider than 31 bits (a program of more than 2^15 blocks) goes as
   two puts, head then code.  Returns the byte past the payload. *)
let pack_slots (l : layout) (slots : int array) ~off ~len out ~at =
  let n_blocks = l.n_blocks and kn = l.kn and program = l.program in
  let lo = if l.width <= 31 then 0 else kn in
  let hi = l.width - lo in
  let acc = ref 0 and nacc = ref 0 and o = ref at in
  for k = off to off + len - 1 do
    let p = Array.unsafe_get slots k in
    let head = p land 0xFFFF_FFFF in
    if head lsr 1 >= n_blocks then invalid_arg "Branch_stream.pack: block id outside the program";
    let next = (p lsr 32) - 1 in
    let id = Program.block_id program next in
    if id < 0 && next <> Addr.none then
      invalid_arg "Branch_stream.pack: successor is not a block start";
    let field = (head lsl kn) lor (id + 1) in
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

(* Whether [l]'s program maps every successor code of [v] to the same
   address, so that [v]'s fields are [l]'s fields: a view bound to [l]'s
   program needs no table, a decoded view shares the successor table of
   the layout it was decoded under, and otherwise one pass over the two
   tables decides, not one over the events.  Equal tables have equal
   lengths, so equal field widths. *)
let same_starts (l : layout) v =
  match v.bound with
  | Some b when b.program == l.program -> true
  | Some _ | None ->
    let t = tables l in
    v.addr == t.addr || v.addr = t.addr

(* The backing is checked once per call: word slots are packed in place;
   a view whose fields are [l]'s is copied as it stands; a view of another
   program is unpacked into a scratch array and checked as word slots. *)
let pack (l : layout) ev ~pos ~len out ~at =
  if pos < ev.released || len < 0 || pos > ev.len - len then
    invalid_arg "Branch_stream.pack: range outside the retained events";
  match ev.packed with
  | None -> pack_slots l ev.slots ~off:(pos - ev.base) ~len out ~at
  | Some v when same_starts l v -> copy_fields v ~pos ~len out ~at
  | Some v -> pack_slots l (Array.init len (fun k -> view_word v (pos + k))) ~off:0 ~len out ~at

let check_payload (l : layout) b ~at ~n =
  if at < 0 || n < 0 || n > max_int / l.width || ((n * l.width) + 7) / 8 > Bytes.length b - at
  then invalid_arg "Branch_stream: payload outside the buffer"

(* The verdict on a batch from its largest head ([block id lsl 1 lor
   taken]) and largest successor code: a block-id fault is named whenever
   any field has one. *)
let fault_of (l : layout) ~head_max ~code_max =
  if head_max lsr 1 >= l.n_blocks then Some "block id outside the program"
  else if code_max > l.n_blocks then Some "successor code outside the program"
  else None

(* The batch kernel.  Every field becomes its slot as [succ_hi.(code) lor
   head] in [into]'s reserved room, with no lookup through the program and
   no check per event: the loop keeps the largest head and the largest
   code, and the slots are committed only if both are in range, so a
   payload whose checksum holds but whose fields fall outside the program
   leaves no partial append (callers feed live replay streams).  A field
   whose 8-byte window lies inside [b] is one [read56]; only the fields in
   the last 8 bytes of [b], and every field wider than 56 bits (a program
   of more than 2^27 blocks), take [read_field]. *)
let append_packed (l : layout) b ~at ~n into =
  check_payload l b ~at ~n;
  let succ_hi = (decoder_tables l "append_packed").succ_hi in
  reserve into n;
  let slots = into.slots and k0 = into.len - into.base in
  let kn = l.kn and width = l.width in
  let mask = (1 lsl kn) - 1 and drop = 64 - width and bit0 = 8 * at in
  let fast =
    if width > 56 then 0 else max 0 (min n (((8 * (Bytes.length b - 7)) - bit0 + width - 1) / width))
  in
  let head_max = ref 0 and code_max = ref 0 in
  for i = 0 to fast - 1 do
    let f = read56 b (bit0 + (i * width)) drop in
    let head = f lsr kn and code = f land mask in
    if head > !head_max then head_max := head;
    if code > !code_max then code_max := code;
    Array.unsafe_set slots (k0 + i) (Array.unsafe_get succ_hi code lor head)
  done;
  let last = Bytes.length b - 8 in
  for i = fast to n - 1 do
    let f = read_field b ~last ~kn ~width (bit0 + (i * width)) in
    let head = f lsr kn and code = f land mask in
    if head > !head_max then head_max := head;
    if code > !code_max then code_max := code;
    Array.unsafe_set slots (k0 + i) (Array.unsafe_get succ_hi code lor head)
  done;
  match fault_of l ~head_max:!head_max ~code_max:!code_max with
  | Some reason -> Error reason
  | None ->
    commit into n;
    Ok ()

(* The largest head and code of a view's [n] fields, then the verdict:
   the same two maxima as the batch kernel, over a padded copy. *)
let find_fault (l : layout) data n =
  let width = l.width and drop = 64 - l.width and kn = l.kn and mask = (1 lsl l.kn) - 1 in
  let head_max = ref 0 and code_max = ref 0 and bit = ref 0 in
  for _ = 1 to n do
    let f = read56 data !bit drop in
    bit := !bit + width;
    if f lsr kn > !head_max then head_max := f lsr kn;
    if f land mask > !code_max then code_max := f land mask
  done;
  fault_of l ~head_max:!head_max ~code_max:!code_max

(* A view needs fields of at most 56 bits; a program of more than 2^27
   blocks gets word slots instead, through the batch kernel.  The view
   shares its layout's successor table, which holds only addresses a word
   slot can hold too. *)
let of_packed (l : layout) b ~at ~n =
  check_payload l b ~at ~n;
  let addr = (decoder_tables l "of_packed").addr in
  if l.width > 56 then
    let ev = recorder ~capacity:n () in
    Result.map (fun () -> ev) (append_packed l b ~at ~n ev)
  else begin
    let bytes = ((n * l.width) + 7) / 8 in
    let data = Bytes.create (bytes + 8) in
    Bytes.blit b at data 0 bytes;
    Bytes.fill data bytes 8 '\000';
    match find_fault l data n with
    | Some reason -> Error reason
    | None ->
      Ok
        { slots = [||]; base = 0; released = 0; len = n; gen = 0;
          packed = Some { data; kn = l.kn; width = l.width; addr; bound = None } }
  end
