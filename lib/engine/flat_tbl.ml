(* Open-addressing hash table from non-negative int keys (addresses,
   packed edges) to non-negative int values, for the simulator's per-step
   probes.  [Hashtbl.Make] tables pay an indirect call to the key module's
   [hash]/[equal] per probe; here a probe is a multiply, a shift and a
   linear scan of one int array — no calls, no allocation.

   No deletion (none of the per-step tables ever remove a key), -1 marks
   an empty slot, and iteration order is arbitrary: only use this where
   that order is never observable. *)

type t = {
  mutable keys : int array; (* -1 = empty *)
  mutable vals : int array;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable len : int;
}

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

let create n =
  let cap = pow2_at_least (max 16 (2 * n)) 16 in
  { keys = Array.make cap (-1); vals = Array.make cap 0; mask = cap - 1; len = 0 }

(* Fibonacci hashing; the shift keeps enough mixed high bits above the
   bucket mask for the capacities we use. *)
let slot mask key = ((key * 0x9E3779B97F4A7C1) lsr 21) land mask

let rec probe keys mask key i =
  let k = Array.unsafe_get keys i in
  if k = key || k = -1 then i else probe keys mask key ((i + 1) land mask)

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = 2 * (t.mask + 1) in
  t.keys <- Array.make cap (-1);
  t.vals <- Array.make cap 0;
  t.mask <- cap - 1;
  for i = 0 to Array.length old_keys - 1 do
    let k = old_keys.(i) in
    if k >= 0 then begin
      let j = probe t.keys t.mask k (slot t.mask k) in
      t.keys.(j) <- k;
      t.vals.(j) <- old_vals.(i)
    end
  done

let maybe_grow t = if 4 * t.len > 3 * (t.mask + 1) then grow t

(* The value bound to [key], or -1 when absent. *)
let find t key =
  let i = probe t.keys t.mask key (slot t.mask key) in
  if Array.unsafe_get t.keys i = key then Array.unsafe_get t.vals i else -1

let mem t key =
  let i = probe t.keys t.mask key (slot t.mask key) in
  Array.unsafe_get t.keys i = key

let set t key v =
  if key < 0 then invalid_arg "Flat_tbl.set: negative key";
  let i = probe t.keys t.mask key (slot t.mask key) in
  if t.keys.(i) = key then t.vals.(i) <- v
  else begin
    t.keys.(i) <- key;
    t.vals.(i) <- v;
    t.len <- t.len + 1;
    maybe_grow t
  end

(* Add [1] to [key]'s count, inserting it at 1: one probe either way. *)
let bump t key =
  if key < 0 then invalid_arg "Flat_tbl.bump: negative key";
  let i = probe t.keys t.mask key (slot t.mask key) in
  if Array.unsafe_get t.keys i = key then t.vals.(i) <- t.vals.(i) + 1
  else begin
    t.keys.(i) <- key;
    t.vals.(i) <- 1;
    t.len <- t.len + 1;
    maybe_grow t
  end

(* [bump] by an arbitrary positive increment that also reports whether
   the key was newly inserted: the edge profiler's flush path lands a
   whole batched count in one probe. *)
let add_fresh t key n =
  if key < 0 then invalid_arg "Flat_tbl.add_fresh: negative key";
  let i = probe t.keys t.mask key (slot t.mask key) in
  if Array.unsafe_get t.keys i = key then begin
    t.vals.(i) <- t.vals.(i) + n;
    false
  end
  else begin
    t.keys.(i) <- key;
    t.vals.(i) <- n;
    t.len <- t.len + 1;
    maybe_grow t;
    true
  end

let length t = t.len

let fold f t acc =
  let acc = ref acc in
  for i = 0 to Array.length t.keys - 1 do
    if t.keys.(i) >= 0 then acc := f t.keys.(i) t.vals.(i) !acc
  done;
  !acc

let iter f t =
  for i = 0 to Array.length t.keys - 1 do
    if t.keys.(i) >= 0 then f t.keys.(i) t.vals.(i)
  done

(* Key-sorted bindings: a canonical enumeration for snapshot codecs, where
   [iter]'s slot order would leak the table's insertion history (and hence
   a restore-vs-uninterrupted layout difference) into the bytes. *)
let sorted_pairs t =
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (fold (fun k v acc -> (k, v) :: acc) t [])
