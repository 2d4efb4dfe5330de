type t = {
  line_bytes : int;
  line_shift : int; (* log2 line_bytes when it is a power of two, else -1 *)
  n_sets : int;
  ways : int;
  tags : int array; (* n_sets * ways, -1 = invalid *)
  stamps : int array; (* LRU timestamps *)
  mutable clock : int; (* one tick per line fetched: also the access count *)
  mutable misses : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ?(size_bytes = 32 * 1024) ?(line_bytes = 64) ?(ways = 4) () =
  if size_bytes <= 0 || line_bytes <= 0 || ways <= 0 then
    invalid_arg "Icache.create: geometry must be positive";
  let n_lines = size_bytes / line_bytes in
  if n_lines mod ways <> 0 then invalid_arg "Icache.create: lines not divisible by ways";
  let n_sets = n_lines / ways in
  if not (is_power_of_two n_sets) then invalid_arg "Icache.create: set count must be a power of two";
  let line_shift =
    if is_power_of_two line_bytes then
      let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
      log2 line_bytes 0
    else -1
  in
  {
    line_bytes;
    line_shift;
    n_sets;
    ways;
    tags = Array.make (n_sets * ways) (-1);
    stamps = Array.make (n_sets * ways) 0;
    clock = 0;
    misses = 0;
  }

(* Closed top-level helpers: a local [let rec] capturing [t]/[base] would
   allocate a closure on every access, which dominates the per-step cost. *)
let rec find_way tags base tag ways i =
  if i = ways then -1 else if Array.get tags (base + i) = tag then i else find_way tags base tag ways (i + 1)

let rec lru_way stamps base ways best i =
  if i = ways then best
  else
    let best = if Array.get stamps (base + i) < Array.get stamps (base + best) then i else best in
    lru_way stamps base ways best (i + 1)

(* Look up [line] at time [clock] in a cache of any associativity, filling
   it over the least-recently-used way on a miss.  [true] on a miss. *)
let touch_line t line clock =
  let base = (line land (t.n_sets - 1)) * t.ways in
  let i = find_way t.tags base line t.ways 0 in
  if i >= 0 then begin
    t.stamps.(base + i) <- clock;
    false
  end
  else begin
    let victim = lru_way t.stamps base t.ways 0 1 in
    t.tags.(base + victim) <- line;
    t.stamps.(base + victim) <- clock;
    true
  end

(* The span kernel: fetch lines [first .. last] (line numbers, byte
   address / [line_bytes]) at times [clock + 1 ..], and return how many
   missed.  The counters are the caller's: [access_lines] stores them
   per call, and the simulator's cached-mode loop carries them across
   steps in its locals.  Cached steps pass the span their node computed
   once at placement ({!Region.set_cache_base}), so the per-step path
   does no address arithmetic at all. *)
let[@inline] fetch_span t ~clock ~first ~last =
  let clock = ref clock and misses = ref 0 in
  if t.ways = 2 then begin
    (* The default geometry, on the per-step path: both ways checked
       inline, no way-scan calls.  [base + 1] is in bounds because the
       set index is below [n_sets] and the arrays hold [n_sets * ways]
       slots.  Tie-breaking matches [lru_way]: way 1 is the victim only
       when strictly older. *)
    let tags = t.tags and stamps = t.stamps and set_mask = t.n_sets - 1 in
    for line = first to last do
      incr clock;
      let base = (line land set_mask) * 2 in
      if Array.unsafe_get tags base = line then Array.unsafe_set stamps base !clock
      else if Array.unsafe_get tags (base + 1) = line then
        Array.unsafe_set stamps (base + 1) !clock
      else begin
        incr misses;
        let victim =
          if Array.unsafe_get stamps (base + 1) < Array.unsafe_get stamps base then base + 1
          else base
        in
        Array.unsafe_set tags victim line;
        Array.unsafe_set stamps victim !clock
      end
    done
  end
  else
    for line = first to last do
      incr clock;
      if touch_line t line !clock then incr misses
    done;
  !misses

let[@inline] access_lines t ~first ~last =
  t.misses <- t.misses + fetch_span t ~clock:t.clock ~first ~last;
  t.clock <- t.clock + (last - first + 1)

let access t ~addr ~bytes =
  if bytes > 0 then begin
    (* Power-of-two lines: shift instead of two integer divisions. *)
    let shift = t.line_shift and stop = addr + bytes - 1 in
    let first = if shift >= 0 then addr lsr shift else addr / t.line_bytes in
    let last = if shift >= 0 then stop lsr shift else stop / t.line_bytes in
    access_lines t ~first ~last
  end

let clock t = t.clock
let accesses t = t.clock
let misses t = t.misses

let store_counters t ~clock ~misses =
  t.clock <- clock;
  t.misses <- misses

let miss_rate t = if t.clock = 0 then 0.0 else float_of_int t.misses /. float_of_int t.clock
let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  t.clock <- 0;
  t.misses <- 0

(* Checkpoint support.  Geometry is not saved — the restored cache must be
   created with the same parameters; the slot count is emitted as a guard
   so a geometry mismatch is caught instead of silently misfiling lines.
   The access count is the clock; the stream carries it twice, which
   keeps the snapshot layout, and a stream where the two differ was not
   written by [save]. *)

let save t emit =
  emit (Array.length t.tags);
  Array.iter emit t.tags;
  Array.iter emit t.stamps;
  emit t.clock;
  emit t.clock;
  emit t.misses

let load t read =
  let n = read () in
  if n <> Array.length t.tags then failwith "Icache.load: geometry mismatch";
  let tags = Array.init n (fun _ -> read ()) in
  let stamps = Array.init n (fun _ -> read ()) in
  let clock = read () in
  let accesses = read () in
  let misses = read () in
  if accesses <> clock then failwith "Icache.load: access count differs from the clock";
  (* Commit only once the whole stream has parsed. *)
  Array.blit tags 0 t.tags 0 n;
  Array.blit stamps 0 t.stamps 0 n;
  t.clock <- clock;
  t.misses <- misses
