open Regionsel_isa

(* Edges are keyed by a single packed int, [src lsl 32 lor dst].  Addresses
   are small non-negative ints, so the packing is injective and never
   overflows OCaml's 63-bit ints.

   Three tiers, cheapest first:

   - Dense counts.  Every edge its source block's terminator names — the
     fall-through and the direct taken target — is counted in [dense], one
     slot per [(block id, taken)], checked against the slot's successor in
     [succ].  That is every edge of a run except returns and indirect
     transfers, and it costs one compare and one increment: no hash.  The
     arrays are built from the [Program] the profile is created over.
   - The ring.  The remaining edges go through a small fixed ring of
     (key, count) slots — a direct-mapped accumulation cache in front of
     the flat table.  A hit bumps the slot's count in place; a conflicting
     occupant is spilled into [edges] with its accumulated count (one
     probe), and the slot is reseeded.
   - [edges], the flat table every read sees.  It starts sized to the
     program, at least two slots per block, so it first grows past 1.5
     edges per block.  Its iteration order is never observable: every
     reader sorts ([save]), builds sets ([preds]) or sums.

   Exactness invariant: every read ([count]/[preds]/[n_edges]/[fold])
   first drains the ring and folds the dense counts into [edges] ([sync]),
   so observers always see counts identical to an unbatched per-step
   profile.  A static edge may sit in [edges] and in [dense] at once (after
   a sync, or from an older snapshot whose ring held static edges): counts
   are always the sum.  [flushes] counts full ring drains (spills are
   per-slot and not counted). *)

type t = {
  mutable edges : Flat_tbl.t;
  ring_keys : int array; (* -1 = empty slot *)
  ring_counts : int array;
  mutable ring_live : int; (* occupied slots, to make an empty drain free *)
  mutable flushes : int;
  mutable pred_index : Addr.Set.t Addr.Table.t option;
  program : Program.t;
  succ : int array; (* [block id * 2 + taken] -> static successor, -1 if dynamic *)
  dense : int array; (* [block id * 2 + taken] -> count not yet in [edges] *)
}

let ring_size = 512
let ring_shift = 63 - 9 (* top 9 bits of the 63-bit fibonacci product *)

let pack ~src ~dst = (src lsl 32) lor dst
let unpack_src key = key lsr 32
let unpack_dst key = key land 0xFFFF_FFFF

let create ~program () =
  let succ =
    Array.init
      (2 * Program.n_blocks program)
      (fun slot ->
        Block.static_succ (Program.block_of_id program (slot lsr 1)) ~taken:(slot land 1 = 1))
  in
  {
    edges = Flat_tbl.create (Program.n_blocks program);
    ring_keys = Array.make ring_size (-1);
    ring_counts = Array.make ring_size 0;
    ring_live = 0;
    flushes = 0;
    pred_index = None;
    program;
    succ;
    dense = Array.make (Array.length succ) 0;
  }

(* Only a previously unseen edge can change the predecessor sets. *)
let[@inline] spill t key count =
  if Flat_tbl.add_fresh t.edges key count then t.pred_index <- None

let[@inline] record t ~src ~dst =
  let key = pack ~src ~dst in
  let i = (key * 0x9E3779B97F4A7C1) lsr ring_shift in
  let k = Array.unsafe_get t.ring_keys i in
  if k = key then
    Array.unsafe_set t.ring_counts i (Array.unsafe_get t.ring_counts i + 1)
  else begin
    if k >= 0 then spill t k (Array.unsafe_get t.ring_counts i)
    else t.ring_live <- t.ring_live + 1;
    Array.unsafe_set t.ring_keys i key;
    Array.unsafe_set t.ring_counts i 1
  end

let[@inline] record_step t ~block_id ~taken ~src ~dst =
  let slot = (block_id lsl 1) lor Bool.to_int taken in
  if Array.unsafe_get t.succ slot = dst then
    Array.unsafe_set t.dense slot (Array.unsafe_get t.dense slot + 1)
  else record t ~src ~dst

let flush t =
  if t.ring_live > 0 then begin
    for i = 0 to ring_size - 1 do
      let k = Array.unsafe_get t.ring_keys i in
      if k >= 0 then begin
        spill t k (Array.unsafe_get t.ring_counts i);
        Array.unsafe_set t.ring_keys i (-1)
      end
    done;
    t.ring_live <- 0;
    t.flushes <- t.flushes + 1
  end

let flushes t = t.flushes

(* Fold the dense counts into [edges].  Unobservable: every read sees the
   sum of both tiers either way. *)
let fold_dense t =
  Array.iteri
    (fun slot c ->
      if c > 0 then begin
        let src = (Program.block_of_id t.program (slot lsr 1)).Block.start in
        spill t (pack ~src ~dst:t.succ.(slot)) c;
        t.dense.(slot) <- 0
      end)
    t.dense

(* What every read does first. *)
let sync t =
  flush t;
  fold_dense t

let count t ~src ~dst =
  sync t;
  let c = Flat_tbl.find t.edges (pack ~src ~dst) in
  if c < 0 then 0 else c

let build_pred_index t =
  let index = Addr.Table.create 1024 in
  Flat_tbl.iter
    (fun key _ ->
      let src = unpack_src key and dst = unpack_dst key in
      let prev = Option.value ~default:Addr.Set.empty (Addr.Table.find_opt index dst) in
      Addr.Table.replace index dst (Addr.Set.add src prev))
    t.edges;
  t.pred_index <- Some index;
  index

(* Synced once per partial application: exit domination asks for the
   predecessors of every region entrance from one [preds t]. *)
let preds t =
  sync t;
  let index = match t.pred_index with Some i -> i | None -> build_pred_index t in
  fun a -> Option.value ~default:Addr.Set.empty (Addr.Table.find_opt index a)

let n_edges t =
  sync t;
  Flat_tbl.length t.edges

let fold f t init =
  sync t;
  Flat_tbl.fold
    (fun key count acc -> f ~src:(unpack_src key) ~dst:(unpack_dst key) count acc)
    t.edges init

(* Checkpoint support.  The ring is serialized verbatim rather than
   drained: draining would bump [flushes], which bench reports, and would
   make a save-then-continue run observably different from an
   uninterrupted one.  The dense counts are folded into [edges] first, so
   the table section holds both tiers, the dense tier needs no section of
   its own, and a snapshot whose ring still holds static edges (as older
   ones do) loads to the same counts. *)

let save t emit =
  emit ring_size;
  Array.iter emit t.ring_keys;
  Array.iter emit t.ring_counts;
  emit t.ring_live;
  emit t.flushes;
  fold_dense t;
  emit (Flat_tbl.length t.edges);
  List.iter
    (fun (key, count) ->
      emit key;
      emit count)
    (Flat_tbl.sorted_pairs t.edges)

let load t read =
  if read () <> ring_size then failwith "Edge_profile.load: ring size mismatch";
  let ring_keys = Array.init ring_size (fun _ -> read ()) in
  let ring_counts = Array.init ring_size (fun _ -> read ()) in
  let ring_live = read () in
  if ring_live < 0 || ring_live > ring_size then
    failwith "Edge_profile.load: ring occupancy out of range";
  let flushes = read () in
  let n = read () in
  if n < 0 then failwith "Edge_profile.load: negative edge count";
  let edges = Flat_tbl.create (max (Program.n_blocks t.program) n) in
  for _ = 1 to n do
    let key = read () in
    let count = read () in
    Flat_tbl.set edges key count
  done;
  (* Commit only once the whole stream has parsed. *)
  Array.blit ring_keys 0 t.ring_keys 0 ring_size;
  Array.blit ring_counts 0 t.ring_counts 0 ring_size;
  t.ring_live <- ring_live;
  t.flushes <- flushes;
  t.edges <- edges;
  Array.fill t.dense 0 (Array.length t.dense) 0;
  t.pred_index <- None
