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
   only once all of it is valid. *)
type events = {
  mutable packed : int array; (* (block_id lsl 1) lor taken *)
  mutable next : int array; (* successor start address, or Addr.none *)
  mutable len : int;
}

type t = Interp.step -> bool

let recorder ?(capacity = 1024) () =
  if capacity < 0 then invalid_arg "Branch_stream.recorder: negative capacity";
  { packed = Array.make capacity 0; next = Array.make capacity 0; len = 0 }

(* A copy loop typed [int array] rather than [Array.blit], which into a
   major-heap array goes through the generic per-element write barrier even
   for ints: growing a recording this way takes about half the time. *)
let grown (a : int array) len cap =
  let b = Array.make cap 0 in
  for i = 0 to len - 1 do
    Array.unsafe_set b i (Array.unsafe_get a i)
  done;
  b

let reserve ev n =
  if n < 0 then invalid_arg "Branch_stream.reserve: negative count";
  let cap = Array.length ev.packed in
  if ev.len + n > cap then begin
    let cap = max (ev.len + n) (max 16 (2 * cap)) in
    ev.packed <- grown ev.packed ev.len cap;
    ev.next <- grown ev.next ev.len cap
  end

let set_pending ev i ~block_id ~taken ~next =
  if block_id < 0 then invalid_arg "Branch_stream.set_pending: negative block id";
  if i < 0 || ev.len + i >= Array.length ev.packed then
    invalid_arg "Branch_stream.set_pending: slot not reserved";
  Array.unsafe_set ev.packed (ev.len + i) ((block_id lsl 1) lor Bool.to_int taken);
  Array.unsafe_set ev.next (ev.len + i) next

let commit ev n =
  if n < 0 || ev.len + n > Array.length ev.packed then
    invalid_arg "Branch_stream.commit: more events than reserved";
  ev.len <- ev.len + n

let append_event ev ~block_id ~taken ~next =
  if block_id < 0 then invalid_arg "Branch_stream.append_event: negative block id";
  if ev.len = Array.length ev.packed then reserve ev 1;
  ev.packed.(ev.len) <- (block_id lsl 1) lor (if taken then 1 else 0);
  ev.next.(ev.len) <- next;
  ev.len <- ev.len + 1

let append ev (s : Interp.step) =
  append_event ev ~block_id:s.Interp.block_id ~taken:s.Interp.taken ~next:s.Interp.next

let length ev = ev.len

let get_block_id ev i = ev.packed.(i) lsr 1
let get_taken ev i = ev.packed.(i) land 1 = 1
let get_next ev i = ev.next.(i)

let iter f ev =
  for i = 0 to ev.len - 1 do
    f ~block_id:(get_block_id ev i) ~taken:(get_taken ev i) ~next:(get_next ev i)
  done

let equal a b =
  a.len = b.len
  &&
  let rec go i =
    i >= a.len
    || (a.packed.(i) = b.packed.(i) && a.next.(i) = b.next.(i) && go (i + 1))
  in
  go 0

let of_interp interp : t = fun s -> Interp.step_into interp s

(* Replaying holds one mutable cursor in the closure; past the end the
   stream reports a halt, exactly like an interpreter whose program
   finished. *)
let of_events ev : t =
  let cursor = ref 0 in
  fun s ->
    let i = !cursor in
    if i >= ev.len then false
    else begin
      let p = Array.unsafe_get ev.packed i in
      s.Interp.block_id <- p lsr 1;
      s.Interp.taken <- p land 1 = 1;
      s.Interp.next <- Array.unsafe_get ev.next i;
      cursor := i + 1;
      true
    end

let next_into (t : t) s = t s
