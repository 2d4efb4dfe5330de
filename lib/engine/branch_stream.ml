(* The abstract branch-event stream of the paper's substitution table:
   every selection algorithm consumes only (block, taken?, target) plus
   static layout, so the hot loop does not care whether events come from
   the live interpreter or a recording.  Events are delivered through the
   caller's reusable [Interp.step] record — same discipline as the step
   loop itself — so a stream costs no allocation per event. *)

(* In-memory recording: one int array, doubling on demand, one slot per
   event:

       ((next + 1) lsl 32) lor (block_id lsl 1) lor taken

   with the successor address in bits 32-61 ([Addr.none] is 0 there) and
   the dense block id with the taken flag in bits 0-31, so appending is
   one store and replaying is one load.  The low 32 bits are exactly the
   head of an event's codec field.  Slots past [len] are invisible to
   every reader, which is what lets a batch be written there and committed
   only once all of it is valid.

   Positions are absolute: slot [k] holds position [base + k].  Positions
   below [released] are gone for every reader; their slots are reclaimed
   lazily, when [reserve] slides the retained tail [released, len) to the
   front instead of growing.  [gen] counts recycles, so a stream can tell
   that its recording was emptied under it.  A recording that is never
   released or recycled keeps [base = released = gen = 0] and reads
   exactly as a plain array. *)
type events = {
  mutable slots : int array;
  mutable base : int; (* absolute position of slot 0 *)
  mutable released : int; (* first position still readable *)
  mutable len : int; (* absolute length *)
  mutable gen : int; (* recycles so far *)
}

type t = Interp.step -> bool

let recorder ?(capacity = 1024) () =
  if capacity < 0 then invalid_arg "Branch_stream.recorder: negative capacity";
  { slots = Array.make capacity 0; base = 0; released = 0; len = 0; gen = 0 }

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
  let cap = Array.length ev.slots in
  if ev.len - ev.base + n > cap then begin
    let from = ev.released - ev.base and keep = ev.len - ev.released in
    if keep + n <= cap then move ev.slots ~from ev.slots keep
    else begin
      let grown = Array.make (max (keep + n) (max 16 (2 * cap))) 0 in
      move ev.slots ~from grown keep;
      ev.slots <- grown
    end;
    ev.base <- ev.released
  end

let[@inline] slot ~block_id ~taken ~next =
  ((next + 1) lsl 32) lor (block_id lsl 1) lor Bool.to_int taken

(* One shift each rejects every out-of-range value, negatives included:
   a block id must fit 31 bits and [next + 1] 30. *)
let[@inline] fits ~block_id ~next = block_id lsr 31 = 0 && (next + 1) lsr 30 = 0

let[@inline] set_pending ev i ~block_id ~taken ~next =
  if not (fits ~block_id ~next) then
    invalid_arg "Branch_stream.set_pending: block id or successor out of range";
  let k = ev.len - ev.base + i in
  if i < 0 || k >= Array.length ev.slots then
    invalid_arg "Branch_stream.set_pending: slot not reserved";
  Array.unsafe_set ev.slots k (slot ~block_id ~taken ~next)

let commit ev n =
  if n < 0 || ev.len - ev.base + n > Array.length ev.slots then
    invalid_arg "Branch_stream.commit: more events than reserved";
  ev.len <- ev.len + n

let[@inline] append_event ev ~block_id ~taken ~next =
  if not (fits ~block_id ~next) then
    invalid_arg "Branch_stream.append_event: block id or successor out of range";
  if ev.len - ev.base = Array.length ev.slots then reserve ev 1;
  Array.unsafe_set ev.slots (ev.len - ev.base) (slot ~block_id ~taken ~next);
  ev.len <- ev.len + 1

let[@inline] append ev (s : Interp.step) =
  append_event ev ~block_id:s.Interp.block_id ~taken:s.Interp.taken ~next:s.Interp.next

let length ev = ev.len
let released ev = ev.released
let capacity ev = Array.length ev.slots

let release ev upto =
  if upto > ev.len then invalid_arg "Branch_stream.release: past the recording's length";
  if upto > ev.released then ev.released <- upto

let recycle ev =
  ev.base <- 0;
  ev.released <- 0;
  ev.len <- 0;
  ev.gen <- ev.gen + 1

(* The getters check the retained range themselves, which also bounds
   the slot, so the load needs no second check: the encoder calls them
   three times an event. *)
let not_retained () = invalid_arg "Branch_stream: position not retained"

let[@inline] get_slot ev i =
  if i < ev.released || i >= ev.len then not_retained ();
  Array.unsafe_get ev.slots (i - ev.base)

let[@inline] get_block_id ev i = (get_slot ev i lsr 1) land 0x7FFF_FFFF
let[@inline] get_taken ev i = get_slot ev i land 1 = 1
let[@inline] get_next ev i = (get_slot ev i lsr 32) - 1

let iter f ev =
  for i = ev.released to ev.len - 1 do
    f ~block_id:(get_block_id ev i) ~taken:(get_taken ev i) ~next:(get_next ev i)
  done

let equal a b =
  a.len = b.len && a.released = b.released
  &&
  let rec go i = i >= a.len || (get_slot a i = get_slot b i && go (i + 1)) in
  go a.released

let of_interp interp : t = fun s -> Interp.step_into interp s

let stale ev ~gen =
  if ev.gen <> gen then invalid_arg "Branch_stream: replay of a recycled recording"
  else invalid_arg "Branch_stream: replay behind the released events"

(* Replaying holds one mutable cursor in the closure, an absolute
   position; past the end the stream reports a halt, exactly like an
   interpreter whose program finished.  The one extra branch per event
   guards the storage a release or a recycle took away. *)
let of_events ev : t =
  let cursor = ref 0 and gen = ev.gen in
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

let next_into (t : t) s = t s
