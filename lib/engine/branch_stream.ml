(* The abstract branch-event stream of the paper's substitution table:
   every selection algorithm consumes only (block, taken?, target) plus
   static layout, so the hot loop does not care whether events come from
   the live interpreter or a recording.  Events are delivered through the
   caller's reusable [Interp.step] record — same discipline as the step
   loop itself — so a stream costs no allocation per event. *)

(* In-memory recording: two parallel int arrays, doubling on demand.  One
   slot packs the dense block id with the taken flag; the other holds the
   successor address verbatim ([Addr.none] on a halt), so appending is two
   stores and replaying is two loads.  Slots past [len] are invisible to
   every reader, which is what lets a batch be written there and committed
   only once all of it is valid.

   Positions are absolute: slot [k] of the arrays holds position
   [base + k].  Positions below [released] are gone for every reader;
   their slots are reclaimed lazily, when [reserve] slides the retained
   tail [released, len) to the front instead of growing.  [gen] counts
   recycles, so a stream can tell that its recording was emptied under
   it.  A recording that is never released or recycled keeps
   [base = released = gen = 0] and reads exactly as a plain array. *)
type events = {
  mutable packed : int array; (* (block_id lsl 1) lor taken *)
  mutable next : int array; (* successor start address, or Addr.none *)
  mutable base : int; (* absolute position of slot 0 *)
  mutable released : int; (* first position still readable *)
  mutable len : int; (* absolute length *)
  mutable gen : int; (* recycles so far *)
}

type t = Interp.step -> bool

let recorder ?(capacity = 1024) () =
  if capacity < 0 then invalid_arg "Branch_stream.recorder: negative capacity";
  {
    packed = Array.make capacity 0;
    next = Array.make capacity 0;
    base = 0;
    released = 0;
    len = 0;
    gen = 0;
  }

(* Copy loops typed [int array] rather than [Array.blit], which into a
   major-heap array goes through the generic per-element write barrier even
   for ints: growing a recording this way takes about half the time. *)
let move (src : int array) ~from (dst : int array) n =
  for i = 0 to n - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src (from + i))
  done

let grown (a : int array) ~from n cap =
  let b = Array.make cap 0 in
  move a ~from b n;
  b

(* Room for [n] slots past [len]: first by dropping the released slots
   (sliding the retained tail to slot 0 in place — the forward copy is
   safe because the source lies above the destination), and only if that
   is not enough by growing to twice the capacity or the room needed,
   whichever is more, which keeps the retained tail and drops the
   released slots on the way. *)
let reserve ev n =
  if n < 0 then invalid_arg "Branch_stream.reserve: negative count";
  let cap = Array.length ev.packed in
  if ev.len - ev.base + n > cap then begin
    let from = ev.released - ev.base and keep = ev.len - ev.released in
    if keep + n <= cap then begin
      move ev.packed ~from ev.packed keep;
      move ev.next ~from ev.next keep
    end
    else begin
      let cap = max (keep + n) (max 16 (2 * cap)) in
      ev.packed <- grown ev.packed ~from keep cap;
      ev.next <- grown ev.next ~from keep cap
    end;
    ev.base <- ev.released
  end

let set_pending ev i ~block_id ~taken ~next =
  if block_id < 0 then invalid_arg "Branch_stream.set_pending: negative block id";
  let k = ev.len - ev.base + i in
  if i < 0 || k >= Array.length ev.packed then
    invalid_arg "Branch_stream.set_pending: slot not reserved";
  Array.unsafe_set ev.packed k ((block_id lsl 1) lor Bool.to_int taken);
  Array.unsafe_set ev.next k next

let commit ev n =
  if n < 0 || ev.len - ev.base + n > Array.length ev.packed then
    invalid_arg "Branch_stream.commit: more events than reserved";
  ev.len <- ev.len + n

let append_event ev ~block_id ~taken ~next =
  if block_id < 0 then invalid_arg "Branch_stream.append_event: negative block id";
  if ev.len - ev.base = Array.length ev.packed then reserve ev 1;
  let k = ev.len - ev.base in
  ev.packed.(k) <- (block_id lsl 1) lor (if taken then 1 else 0);
  ev.next.(k) <- next;
  ev.len <- ev.len + 1

let append ev (s : Interp.step) =
  append_event ev ~block_id:s.Interp.block_id ~taken:s.Interp.taken ~next:s.Interp.next

let length ev = ev.len
let released ev = ev.released
let capacity ev = Array.length ev.packed

let release ev upto =
  if upto > ev.len then invalid_arg "Branch_stream.release: past the recording's length";
  if upto > ev.released then ev.released <- upto

let recycle ev =
  ev.base <- 0;
  ev.released <- 0;
  ev.len <- 0;
  ev.gen <- ev.gen + 1

(* The getters check the retained range themselves, which also bounds
   the slot, so the loads need no second check: the encoder calls them
   three times an event. *)
let not_retained () = invalid_arg "Branch_stream: position not retained"

let get_block_id ev i =
  if i < ev.released || i >= ev.len then not_retained ();
  Array.unsafe_get ev.packed (i - ev.base) lsr 1

let get_taken ev i =
  if i < ev.released || i >= ev.len then not_retained ();
  Array.unsafe_get ev.packed (i - ev.base) land 1 = 1

let get_next ev i =
  if i < ev.released || i >= ev.len then not_retained ();
  Array.unsafe_get ev.next (i - ev.base)

let iter f ev =
  for i = ev.released to ev.len - 1 do
    f ~block_id:(get_block_id ev i) ~taken:(get_taken ev i) ~next:(get_next ev i)
  done

let equal a b =
  a.len = b.len && a.released = b.released
  &&
  let rec go i =
    i >= a.len
    || a.packed.(i - a.base) = b.packed.(i - b.base)
       && a.next.(i - a.base) = b.next.(i - b.base)
       && go (i + 1)
  in
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
      let k = i - ev.base in
      let p = Array.unsafe_get ev.packed k in
      s.Interp.block_id <- p lsr 1;
      s.Interp.taken <- p land 1 = 1;
      s.Interp.next <- Array.unsafe_get ev.next k;
      cursor := i + 1;
      true
    end

let next_into (t : t) s = t s
