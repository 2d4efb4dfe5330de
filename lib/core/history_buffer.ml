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
  hash : int Addr.Table.t; (* target -> seq of most recent occurrence *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "History_buffer.create: capacity must be >= 1";
  {
    srcs = Array.make capacity 0;
    tgts = Array.make capacity 0;
    fexits = Array.make capacity false;
    seqs = Array.make capacity 0;
    cap = capacity;
    hi = 0;
    live = 0;
    hash = Addr.Table.create 1024;
  }

let length t = t.live

let is_live t seq = seq >= 1 && seq > t.hi - t.cap && seq <= t.hi && t.seqs.(seq mod t.cap) = seq

let get t seq =
  if not (is_live t seq) then None
  else
    let i = seq mod t.cap in
    Some { src = t.srcs.(i); tgt = t.tgts.(i); follows_exit = t.fexits.(i); seq }

let find_seq t tgt =
  match Addr.Table.find t.hash tgt with
  | seq -> if is_live t seq && Addr.equal t.tgts.(seq mod t.cap) tgt then seq else 0
  | exception Not_found -> 0

let find t tgt =
  let seq = find_seq t tgt in
  if seq = 0 then None else get t seq

let insert t ~src ~tgt ~follows_exit =
  let seq = t.hi + 1 in
  let i = seq mod t.cap in
  (* The slot being overwritten holds the entry falling out of the window
     (if it was live); anything else there is already dead. *)
  if not (is_live t t.seqs.(i)) then t.live <- t.live + 1;
  t.srcs.(i) <- src;
  t.tgts.(i) <- tgt;
  t.fexits.(i) <- follows_exit;
  t.seqs.(i) <- seq;
  t.hi <- seq;
  Addr.Table.replace t.hash tgt seq;
  seq

(* The previous occurrence is looked up by sequence number and its flag
   read before the insert, which may overwrite its slot; nothing on this
   per-branch path allocates. *)
let counted_cycle t ~src ~tgt ~follows_exit =
  let old_seq = find_seq t tgt in
  let old_follows_exit = old_seq > 0 && t.fexits.(old_seq mod t.cap) in
  ignore (insert t ~src ~tgt ~follows_exit);
  if old_seq > 0 && (Addr.is_backward ~src ~tgt || old_follows_exit) then old_seq else 0

let entries_after t ~seq =
  let rec collect s acc =
    if s > t.hi then List.rev acc
    else collect (s + 1) (match get t s with Some e -> e :: acc | None -> acc)
  in
  collect (max 1 (seq + 1)) []

let truncate_after t ~seq =
  if seq < t.hi then begin
    let cut = max 0 seq in
    let rec dead s acc = if s > t.hi then acc else dead (s + 1) (if is_live t s then acc + 1 else acc) in
    t.live <- t.live - dead (cut + 1) 0;
    t.hi <- cut
  end

(* Checkpoint support.  The slot arrays are serialized verbatim — stale
   slots included — and so is the whole hash index, stale bindings
   included: [find_seq] deliberately misses a stale binding (returns 0)
   even when an older live occurrence of the same target exists in the
   window, so rebuilding the index from live entries would resurrect that
   older occurrence and silently diverge from the uninterrupted run. *)

let save t emit =
  emit t.cap;
  Array.iter emit t.srcs;
  Array.iter emit t.tgts;
  Array.iter (fun b -> emit (if b then 1 else 0)) t.fexits;
  Array.iter emit t.seqs;
  emit t.hi;
  emit t.live;
  emit (Addr.Table.length t.hash);
  Addr.Table.iter_sorted
    (fun tgt seq ->
      emit tgt;
      emit seq)
    t.hash

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
  t.live <- read ();
  if t.live < 0 || t.live > t.cap then failwith "History_buffer.load: live count out of range";
  let n = read () in
  if n < 0 then failwith "History_buffer.load: negative index length";
  Addr.Table.reset t.hash;
  for _ = 1 to n do
    let tgt = read () in
    let seq = read () in
    Addr.Table.replace t.hash tgt seq
  done
