open Regionsel_isa

type entry = { src : Addr.t; tgt : Addr.t; follows_exit : bool; seq : int }

(* Storage is four parallel unboxed arrays indexed by [seq mod cap] instead
   of an [entry option array]: an insert writes three ints and a bool in
   place, with no [Some] box and no entry record on the hot path.  Slot [i]
   holds the entry with sequence [seqs.(i)]; a slot is live iff its sequence
   lies in the current window [(hi - cap, hi]] and matches, which also makes
   stale slots left behind by {!truncate_after} unreachable (they are
   overwritten exactly when their sequence number is re-issued). *)
type t = {
  srcs : int array;
  tgts : int array;
  fexits : bool array;
  seqs : int array; (* 0 = never written *)
  cap : int;
  mutable hi : int; (* highest live sequence number; 0 = empty *)
  mutable live : int; (* number of live entries, maintained incrementally *)
  program : Program.t;
  index : int array; (* target block id -> seq of most recent occurrence; 0 = none *)
  mutable bound : int; (* ids with a binding in [index] *)
}

let create program ~capacity =
  if capacity < 1 then invalid_arg "History_buffer.create: capacity must be >= 1";
  {
    srcs = Array.make capacity 0;
    tgts = Array.make capacity 0;
    fexits = Array.make capacity false;
    seqs = Array.make capacity 0;
    cap = capacity;
    hi = 0;
    live = 0;
    program;
    index = Array.make (Program.n_blocks program) 0;
    bound = 0;
  }

let length t = t.live

let[@inline] slot t seq = seq mod t.cap

(* The slot of a live [seq], or [-1]. *)
let live_slot t seq =
  if seq >= 1 && seq > t.hi - t.cap && seq <= t.hi then
    let i = slot t seq in
    if t.seqs.(i) = seq then i else -1
  else -1

let is_live t seq = live_slot t seq >= 0

let get t seq =
  let i = live_slot t seq in
  if i < 0 then None
  else Some { src = t.srcs.(i); tgt = t.tgts.(i); follows_exit = t.fexits.(i); seq }

let target_id t tgt =
  let id = Program.block_id t.program tgt in
  if id < 0 then invalid_arg "History_buffer: target is not a block start";
  id

(* [id] is [tgt]'s block id.  A binding whose slot has since been
   overwritten — by wrap-around, or by a re-issued sequence number after a
   truncation — is a miss, even when an older live occurrence of [tgt]
   exists.  Returns the occurrence's slot, or [-1]. *)
let find_slot t ~tgt ~id =
  let i = live_slot t t.index.(id) in
  if i >= 0 && Addr.equal t.tgts.(i) tgt then i else -1

let find t tgt =
  let id = Program.block_id t.program tgt in
  let i = if id < 0 then -1 else find_slot t ~tgt ~id in
  if i < 0 then None else get t t.seqs.(i)

let push t ~src ~tgt ~id ~follows_exit =
  let seq = t.hi + 1 in
  let i = slot t seq in
  (* The slot being overwritten holds the entry falling out of the window
     (if it was live); anything else there is already dead. *)
  if not (is_live t t.seqs.(i)) then t.live <- t.live + 1;
  t.srcs.(i) <- src;
  t.tgts.(i) <- tgt;
  t.fexits.(i) <- follows_exit;
  t.seqs.(i) <- seq;
  t.hi <- seq;
  if t.index.(id) = 0 then t.bound <- t.bound + 1;
  t.index.(id) <- seq;
  seq

let insert t ~src ~tgt ~follows_exit = push t ~src ~tgt ~id:(target_id t tgt) ~follows_exit

(* The previous occurrence's sequence number and flag are read before the
   insert, which may overwrite its slot; nothing on this per-branch path
   allocates. *)
let counted_cycle t ~src ~tgt ~follows_exit =
  let id = target_id t tgt in
  let old = find_slot t ~tgt ~id in
  let old_seq = if old < 0 then 0 else t.seqs.(old) in
  let old_follows_exit = old >= 0 && t.fexits.(old) in
  ignore (push t ~src ~tgt ~id ~follows_exit);
  if old_seq > 0 && (Addr.is_backward ~src ~tgt || old_follows_exit) then old_seq else 0

let rec next_live t ~after =
  let s = max 1 (after + 1) in
  if s > t.hi then 0 else if is_live t s then s else next_live t ~after:s

let src_at t seq = t.srcs.(slot t seq)
let tgt_at t seq = t.tgts.(slot t seq)
let follows_exit_at t seq = t.fexits.(slot t seq)

(* The cursor unfolded into records: the walk trace formation does. *)
let entries_after t ~seq =
  let rec collect s acc =
    if s = 0 then List.rev acc
    else
      let e = { src = src_at t s; tgt = tgt_at t s; follows_exit = follows_exit_at t s; seq = s } in
      collect (next_live t ~after:s) (e :: acc)
  in
  collect (next_live t ~after:seq) []

let truncate_after t ~seq =
  if seq < t.hi then begin
    let cut = max 0 seq in
    let rec dead s acc = if s > t.hi then acc else dead (s + 1) (if is_live t s then acc + 1 else acc) in
    t.live <- t.live - dead (cut + 1) 0;
    t.hi <- cut
  end

(* Checkpoint support.  The slot arrays are serialized verbatim — stale
   slots included — and so is the whole index, stale bindings included:
   [find_slot] deliberately misses a stale binding even when an
   older live occurrence of the same target exists in the window, so
   rebuilding the index from live entries would resurrect that older
   occurrence and silently diverge from the uninterrupted run.  Bindings
   travel as (target address, seq) pairs in ascending id order, which is
   ascending address order. *)

let save t emit =
  emit t.cap;
  Array.iter emit t.srcs;
  Array.iter emit t.tgts;
  Array.iter (fun b -> emit (if b then 1 else 0)) t.fexits;
  Array.iter emit t.seqs;
  emit t.hi;
  emit t.live;
  emit t.bound;
  Array.iteri
    (fun id seq ->
      if seq > 0 then begin
        emit (Program.block_of_id t.program id).Block.start;
        emit seq
      end)
    t.index

let load t read =
  if read () <> t.cap then failwith "History_buffer.load: capacity mismatch";
  for i = 0 to t.cap - 1 do
    t.srcs.(i) <- read ()
  done;
  for i = 0 to t.cap - 1 do
    t.tgts.(i) <- read ()
  done;
  for i = 0 to t.cap - 1 do
    t.fexits.(i) <-
      (match read () with
      | 0 -> false
      | 1 -> true
      | _ -> failwith "History_buffer.load: bad flag")
  done;
  for i = 0 to t.cap - 1 do
    t.seqs.(i) <- read ()
  done;
  t.hi <- read ();
  if t.hi < 0 then failwith "History_buffer.load: negative sequence number";
  t.live <- read ();
  if t.live < 0 || t.live > t.cap then failwith "History_buffer.load: live count out of range";
  let n = read () in
  if n < 0 then failwith "History_buffer.load: negative index length";
  Array.fill t.index 0 (Array.length t.index) 0;
  t.bound <- 0;
  for _ = 1 to n do
    let id = Program.block_id t.program (read ()) in
    let seq = read () in
    if id < 0 then failwith "History_buffer.load: target is not a block start";
    if seq < 1 then failwith "History_buffer.load: sequence number below 1";
    if t.index.(id) = 0 then t.bound <- t.bound + 1;
    t.index.(id) <- seq
  done
