open Regionsel_isa
module Telemetry = Regionsel_telemetry.Telemetry

type reject = Duplicate_entry | Blacklisted | Translation_failed | Quota_exceeded

let reject_to_string = function
  | Duplicate_entry -> "duplicate-entry"
  | Blacklisted -> "blacklisted"
  | Translation_failed -> "translation-failed"
  | Quota_exceeded -> "quota-exceeded"

type blacklist_entry = {
  mutable fails : int;
  mutable until : int;
  mutable expire_traced : bool;
      (* Cooldowns expire passively (by step comparison), so expiry has no
         natural code point; the first install probe that finds the
         cooldown over emits one blacklist-expire telemetry event and sets
         this flag.  Pure observation: never read by the blacklist logic. *)
}

type t = {
  mutable fifo : Region.t Queue.t;
      (* Install order.  Retired regions are left in place as tombstones and
         skipped lazily, so eviction pops each element at most once:
         [make_room] under [Evict_oldest] is O(evicted) amortized.
         Invalidation retires without popping, so [fifo_tombstones] counts
         the dead elements and the queue is compacted (live entries only,
         order preserved) once tombstones outnumber live regions —
         otherwise an unbounded cache under an SMC/shock-heavy schedule
         accumulates every region it ever retired. *)
  mutable fifo_tombstones : int;
  mutable retired : Region.t list;
  mutable next_id : int;
  mutable bytes_used : int;
  mutable alloc_cursor : int;
      (* Bump allocator for region placement; holes left by eviction are not
         reused, as in cache managers that only reclaim on flush. *)
  capacity_bytes : int option;
  mutable quota_bytes : int option;
      (* Scheduler-imposed byte quota (per-tenant share of a global budget),
         tightening [capacity_bytes] at runtime.  Not part of snapshots:
         whoever imposed it re-imposes it after a restore. *)
  mutable quota_rejects : int;
  mutable quota_evictions : int;
  eviction : Params.eviction;
  program : Program.t;
  line_bytes : int;  (* icache line size the regions' node spans are computed for *)
  dispatch : Region.t option array;
      (* block id -> live region claiming that block as entry or aux entry:
         the cache's only index of live regions.  A live region always
         owns its entry's slot (an install whose entry is claimed is a
         [Duplicate_entry]), so liveness and [find] are one array read. *)
  evicted : bool array;  (* block id -> an entry that was ever retired *)
  mutable incoming_links : (Region.t * int) list array;
      (* target region id -> (source region, slot) pairs whose exit stub is
         patched to jump to the target, so retiring a region severs every
         link into it in O(links); grown as linked ids appear.  Entries are
         cleaned lazily: a recorded pair whose slot no longer points at the
         target is ignored. *)
  slot_links : Region.t list array;
      (* block id -> source regions holding a live link through that slot,
         so an install that (re)claims the block id can sever links that
         would otherwise disagree with the dispatch array. *)
  mutable links_created : int;
  mutable link_severs : int;
  mutable live_links : int;
  blacklist : blacklist_entry option array;  (* block id -> entry's failure record *)
  blacklist_base_cooldown : int;
  blacklist_max_shift : int;
  mutable fail_installs_until : int;
      (* While [now <= fail_installs_until] the translator is flaky and
         every install fails. *)
  mutable now : int;
  mutable clock_regressions : int;
      (* Times [set_now] was handed a step earlier than [now] (clamped, not
         applied).  The simulator's stamps are monotone by construction, so
         a nonzero count means a caller replayed a stale step — surfaced as
         a sanitizer rule under [--check]. *)
  mutable evictions : int;
  mutable flushes : int;
  mutable regenerations : int;
  mutable invalidations : int;
  mutable blacklist_hits : int;
  mutable duplicate_installs : int;
  mutable translation_failures : int;
  telemetry : Telemetry.sink;
      (* Lifecycle-event sink (no-op by default).  Events are stamped with
         [now], which the simulator advances via [set_now] before installs
         and fault deliveries. *)
  mutable auditor : (string -> unit) option;
      (* Sanitizer hook: called with the operation name after every
         mutating operation (install, evict, flush, invalidate, shock,
         add_link) and on a clock regression.  [None] (the default) costs
         one compare per mutation; no cache decision ever depends on it. *)
}

let create ?capacity_bytes ?(eviction = Params.Flush_all)
    ?(blacklist_base_cooldown = Params.default.Params.blacklist_base_cooldown)
    ?(blacklist_max_shift = Params.default.Params.blacklist_max_shift)
    ?(telemetry = Telemetry.none) ~program ~icache_line_bytes () =
  let n_blocks = Program.n_blocks program in
  {
    fifo = Queue.create ();
    fifo_tombstones = 0;
    retired = [];
    next_id = 0;
    bytes_used = 0;
    alloc_cursor = 0;
    capacity_bytes;
    quota_bytes = None;
    quota_rejects = 0;
    quota_evictions = 0;
    eviction;
    program;
    line_bytes = icache_line_bytes;
    dispatch = Array.make n_blocks None;
    evicted = Array.make n_blocks false;
    incoming_links = [||];
    slot_links = Array.make n_blocks [];
    links_created = 0;
    link_severs = 0;
    live_links = 0;
    blacklist = Array.make n_blocks None;
    blacklist_base_cooldown;
    blacklist_max_shift;
    fail_installs_until = -1;
    now = 0;
    clock_regressions = 0;
    evictions = 0;
    flushes = 0;
    regenerations = 0;
    invalidations = 0;
    blacklist_hits = 0;
    duplicate_installs = 0;
    translation_failures = 0;
    telemetry;
    auditor = None;
  }

let set_auditor t f = t.auditor <- Some f
let clear_auditor t = t.auditor <- None

let audited t op = match t.auditor with None -> () | Some f -> f op

let dispatch t id =
  if id >= 0 && id < Array.length t.dispatch then Array.unsafe_get t.dispatch id else None

(* Unpatch every live link routed through the given block id.  Called when
   an install (re)claims the id: the existing links point at whatever was
   dispatchable there before, and a link must always agree with the
   dispatch array (the simulator consults the link slot *instead of*
   dispatching). *)
let sever_slot t id =
  match t.slot_links.(id) with
  | [] -> ()
  | sources ->
    t.slot_links.(id) <- [];
    List.iter
      (fun (src : Region.t) ->
        match Region.link_target src id with
        | Some (tgt : Region.t) ->
          Region.set_link src ~slot:id None;
          t.link_severs <- t.link_severs + 1;
          t.live_links <- t.live_links - 1;
          Telemetry.link_sever t.telemetry ~step:t.now ~from_id:src.Region.id
            ~target_id:tgt.Region.id
        | None -> ())
      sources

(* Addresses the cache stores are block starts: [install] checks the
   entry and [Region.of_spec] the nodes, so these ids are never -1. *)
let id_of t a = Program.block_id t.program a

let dispatch_set t id region =
  sever_slot t id;
  t.dispatch.(id) <- Some region

let dispatch_clear t id region =
  match t.dispatch.(id) with
  | Some r when r == region -> t.dispatch.(id) <- None
  | Some _ | None -> ()

let find t a = dispatch t (id_of t a)
let mem t a = Option.is_some (find t a)

let is_live t (region : Region.t) =
  match find t region.Region.entry with Some r -> r == region | None -> false

(* Sever every link into the retiring region — the link-cache invariant is
   "no link may outlive its target region" — and drop its own outgoing
   links (which die with it but are not counted as severs: nothing ever
   consults a retired region's slots on the hot path, they are cleared so
   retired regions cannot pin their former neighbours live). *)
let sever_links_into t (region : Region.t) =
  let id = region.Region.id in
  (match if id < Array.length t.incoming_links then t.incoming_links.(id) else [] with
  | [] -> ()
  | sources ->
    t.incoming_links.(id) <- [];
    List.iter
      (fun ((src : Region.t), slot) ->
        match Region.link_target src slot with
        | Some r when r == region ->
          Region.set_link src ~slot None;
          t.link_severs <- t.link_severs + 1;
          t.live_links <- t.live_links - 1;
          Telemetry.link_sever t.telemetry ~step:t.now ~from_id:src.Region.id
            ~target_id:region.Region.id
        | Some _ | None -> ())
      sources);
  t.live_links <- t.live_links - Region.clear_links region

(* Unlink a region from every live index.  Counter policy is the caller's:
   capacity eviction and flushes count as evictions, invalidation as
   invalidations. *)
let retire t (region : Region.t) =
  sever_links_into t region;
  let entry = id_of t region.Region.entry in
  dispatch_clear t entry region;
  Region.iter_aux_entries (fun id -> dispatch_clear t id region) region;
  t.evicted.(entry) <- true;
  t.retired <- region :: t.retired;
  t.bytes_used <- t.bytes_used - Region.cache_bytes region

(* Patch one exit link: [from]'s exit stub for the block [slot] jumps
   straight to [target] from now on, skipping dispatch.  First link wins;
   callers only attempt it right after a dispatch probe returned [target],
   so the link and the dispatch array agree by construction. *)
let register_link t ~(from : Region.t) ~slot ~(target : Region.t) =
  Region.set_link from ~slot (Some target);
  let id = target.Region.id in
  let n = Array.length t.incoming_links in
  if id >= n then begin
    let grown = Array.make (max (id + 1) (2 * n)) [] in
    Array.blit t.incoming_links 0 grown 0 n;
    t.incoming_links <- grown
  end;
  t.incoming_links.(id) <- (from, slot) :: t.incoming_links.(id);
  t.slot_links.(slot) <- from :: t.slot_links.(slot)

let add_link t ~(from : Region.t) ~slot ~(target : Region.t) =
  if
    slot >= 0
    && slot < Region.n_link_slots from
    && (match Region.link_target from slot with None -> true | Some _ -> false)
  then begin
    register_link t ~from ~slot ~target;
    t.links_created <- t.links_created + 1;
    t.live_links <- t.live_links + 1;
    Telemetry.link_patch t.telemetry ~step:t.now ~from_id:from.Region.id
      ~target_id:target.Region.id;
    audited t "add-link"
  end

let rec evict_oldest t =
  match Queue.take_opt t.fifo with
  | None -> None
  | Some r ->
    if is_live t r then begin
      retire t r;
      t.evictions <- t.evictions + 1;
      Telemetry.evict t.telemetry ~step:t.now ~id:r.Region.id ~flush:false;
      audited t "evict";
      Some r
    end
    else begin
      (* Tombstone: already retired by another path. *)
      t.fifo_tombstones <- t.fifo_tombstones - 1;
      evict_oldest t
    end

let flush_all t =
  let flushed = ref [] in
  Queue.iter
    (fun r ->
      if is_live t r then begin
        retire t r;
        t.evictions <- t.evictions + 1;
        Telemetry.evict t.telemetry ~step:t.now ~id:r.Region.id ~flush:true;
        flushed := r :: !flushed
      end)
    t.fifo;
  Queue.clear t.fifo;
  t.fifo_tombstones <- 0;
  t.flushes <- t.flushes + 1;
  audited t "flush";
  List.rev !flushed

let n_regions t = Queue.length t.fifo - t.fifo_tombstones

(* The byte bound installs must respect: the static capacity tightened by
   the runtime quota, whichever is smaller. *)
let effective_capacity t =
  match t.capacity_bytes, t.quota_bytes with
  | None, None -> None
  | (Some _ as c), None -> c
  | None, (Some _ as q) -> q
  | Some c, Some q -> Some (min c q)

let rec make_room t needed =
  match effective_capacity t with
  | None -> ()
  | Some capacity ->
    if t.bytes_used + needed > capacity && n_regions t > 0 then begin
      (match t.eviction with
      | Params.Flush_all -> ignore (flush_all t)
      | Params.Evict_oldest -> ignore (evict_oldest t));
      make_room t needed
    end

let set_now t step =
  if step > t.now then t.now <- step
  else if step < t.now then begin
    (* A stale stamp (e.g. a replayed snapshot from the bailout-watchdog
       resume path) is clamped, never applied: blacklist cooldowns and
       telemetry stamps must not move backwards.  The regression is counted
       so the sanitizer can flag the caller. *)
    t.clock_regressions <- t.clock_regressions + 1;
    audited t "set-now"
  end

let record_failure t entry =
  let id = id_of t entry in
  let b =
    match t.blacklist.(id) with
    | Some b -> b
    | None ->
      let b = { fails = 0; until = 0; expire_traced = false } in
      t.blacklist.(id) <- Some b;
      b
  in
  b.fails <- b.fails + 1;
  b.expire_traced <- false;
  let shift = min (b.fails - 1) t.blacklist_max_shift in
  let cooldown = t.blacklist_base_cooldown lsl shift in
  b.until <- t.now + cooldown;
  Telemetry.blacklist_add t.telemetry ~step:t.now ~entry ~cooldown

let blacklisted_until t entry =
  let id = id_of t entry in
  if id < 0 then 0 else match t.blacklist.(id) with Some b -> b.until | None -> 0

let n_blacklisted t =
  Array.fold_left
    (fun acc -> function Some b when b.until > t.now -> acc + 1 | Some _ | None -> acc)
    0 t.blacklist

let arm_translation_failures t ~window =
  let until = t.now + window in
  if until > t.fail_installs_until then t.fail_installs_until <- until

let install t (spec : Region.spec) =
  let entry = id_of t spec.Region.entry in
  if entry < 0 then
    invalid_arg
      (Printf.sprintf "Code_cache.install: entry %s is not a block start"
         (Addr.to_string spec.Region.entry));
  (* Blacklist before the translation window: an entry already in cooldown
     must not record a fresh failure (and a doubled cooldown) for installs
     it was never eligible to attempt. *)
  match t.blacklist.(entry) with
  | Some b when b.until > t.now ->
    t.blacklist_hits <- t.blacklist_hits + 1;
    Error Blacklisted
  | (Some _ | None) as stale ->
    (match stale with
    | Some b when b.until > 0 && not b.expire_traced ->
      b.expire_traced <- true;
      Telemetry.blacklist_expire t.telemetry ~step:t.now ~entry:spec.Region.entry
    | Some _ | None -> ());
    if t.now <= t.fail_installs_until then begin
      t.translation_failures <- t.translation_failures + 1;
      record_failure t spec.Region.entry;
      Error Translation_failed
    end
    else
      if Option.is_some t.dispatch.(entry) then begin
        t.duplicate_installs <- t.duplicate_installs + 1;
        Error Duplicate_entry
      end
      else begin
        let region = Region.of_spec ~id:t.next_id ~selected_at:t.next_id ~program:t.program spec in
        let bytes = Region.cache_bytes region in
        match t.quota_bytes with
        | Some quota when bytes > quota ->
          (* The region can never fit under the tenant's quota, no matter
             what is evicted: a typed admission reject with no cache
             mutation (the region id is not consumed). *)
          t.quota_rejects <- t.quota_rejects + 1;
          Error Quota_exceeded
        | Some _ | None ->
          make_room t bytes;
          t.next_id <- t.next_id + 1;
          if t.evicted.(entry) then t.regenerations <- t.regenerations + 1;
          dispatch_set t entry region;
          Region.iter_aux_entries
            (fun id ->
              (* An aux entry must not steal an address another live region
                 already claims: overwriting its slot would leave that
                 region live-but-undispatchable (and, once this region
                 retires, a permanently dead dispatch slot).  The colliding
                 aux entry simply is not dispatchable — the owning region
                 still executes through it via its internal edges. *)
              if Option.is_none t.dispatch.(id) then dispatch_set t id region)
            region;
          Queue.add region t.fifo;
          t.bytes_used <- t.bytes_used + bytes;
          Region.set_cache_base region ~line_bytes:t.line_bytes t.alloc_cursor;
          t.alloc_cursor <- t.alloc_cursor + bytes;
          Telemetry.install t.telemetry ~step:t.now ~id:region.Region.id
            ~n_nodes:region.Region.n_nodes;
          audited t "install";
          Ok region
      end

let install_exn t spec =
  match install t spec with
  | Ok region -> region
  | Error reject ->
    invalid_arg
      (Printf.sprintf "Code_cache.install: entry %s rejected (%s)"
         (Addr.to_string spec.Region.entry) (reject_to_string reject))

let overlaps ~lo ~hi (region : Region.t) =
  List.exists
    (fun (b : Block.t) -> b.Block.start <= hi && Block.last b >= lo)
    (Region.nodes region)

(* Invalidation (and blacklist-path retirement) leaves its victims in the
   FIFO as tombstones.  Under a bounded cache eviction pops them off
   eventually, but an unbounded cache never evicts, so a long SMC-heavy run
   would grow the queue without bound.  Rebuild the queue live-only (order
   preserved) once tombstones outnumber live regions; the floor keeps tiny
   caches from compacting on every invalidation. *)
let compact_floor = 8

let maybe_compact t =
  if t.fifo_tombstones > compact_floor && t.fifo_tombstones > n_regions t then begin
    let live = Queue.create () in
    Queue.iter (fun r -> if is_live t r then Queue.add r live) t.fifo;
    t.fifo <- live;
    t.fifo_tombstones <- 0
  end

let invalidate_range t ~lo ~hi =
  let hit =
    Queue.fold (fun acc r -> if is_live t r && overlaps ~lo ~hi r then r :: acc else acc) [] t.fifo
  in
  let hit = List.rev hit in
  List.iter
    (fun r ->
      retire t r;
      t.fifo_tombstones <- t.fifo_tombstones + 1;
      t.invalidations <- t.invalidations + 1;
      Telemetry.invalidate t.telemetry ~step:t.now ~id:r.Region.id;
      record_failure t r.Region.entry)
    hit;
  maybe_compact t;
  if hit <> [] then audited t "invalidate";
  hit

let shock t ~bytes =
  match t.eviction with
  | Params.Flush_all -> if n_regions t > 0 then flush_all t else []
  | Params.Evict_oldest ->
    let before = t.bytes_used in
    let retired = ref [] in
    let continue = ref true in
    while !continue && before - t.bytes_used < bytes && n_regions t > 0 do
      match evict_oldest t with
      | Some r -> retired := r :: !retired
      | None -> continue := false
    done;
    List.rev !retired

(* Quota changes: tightening below the current footprint forces immediate
   evictions.  Quota pressure always evicts oldest-first, whatever the
   configured eviction policy: the tenant did nothing wrong when the
   *global* budget shifted, so flushing its whole cache (the [Flush_all]
   response to self-inflicted capacity pressure) would be out of
   proportion.  Returns the retired regions so the caller can deliver
   invalidations to the policy. *)
let set_quota t quota =
  (match quota with
  | Some q when q < 0 -> invalid_arg "Code_cache.set_quota: negative quota"
  | Some _ | None -> ());
  t.quota_bytes <- quota;
  match quota with
  | None -> []
  | Some q ->
    let retired = ref [] in
    while t.bytes_used > q && n_regions t > 0 do
      match evict_oldest t with
      | Some r ->
        t.quota_evictions <- t.quota_evictions + 1;
        retired := r :: !retired
      | None -> ()
    done;
    List.rev !retired

let quota t = t.quota_bytes
let quota_rejects t = t.quota_rejects
let quota_evictions t = t.quota_evictions

let by_selection rs =
  List.sort (fun (a : Region.t) b -> compare a.Region.selected_at b.Region.selected_at) rs

let regions t =
  List.rev (Queue.fold (fun acc r -> if is_live t r then r :: acc else acc) [] t.fifo)
let all_regions t = by_selection (t.retired @ regions t)
let bytes_used t = t.bytes_used
let icache_line_bytes t = t.line_bytes
let now t = t.now
let clock_regressions t = t.clock_regressions
let fifo_length t = Queue.length t.fifo
let fifo_tombstones t = t.fifo_tombstones

(* Deliberately break the FIFO ↔ dispatch agreement: clear one live
   region's entry slot while leaving its FIFO element, bytes and links in
   place.  Exists only so the sanitizer's self-test (regionsel_fuzz
   --self-test-break) has a real corruption to catch; never called by the
   engine. *)
let unsafe_corrupt_for_tests t =
  match Queue.fold (fun acc r -> if acc = None && is_live t r then Some r else acc) None t.fifo with
  | None -> false
  | Some r ->
    t.dispatch.(id_of t r.Region.entry) <- None;
    true

let region_by_id t id =
  Queue.fold
    (fun acc r ->
      match acc with
      | Some _ -> acc
      | None -> if r.Region.id = id && is_live t r then Some r else None)
    None t.fifo

(* Checkpoint support.

   [save] serializes every region the cache has ever created (live and
   retired — retired regions still feed the post-run metrics), then the
   structural state as region-id references: the live set, the FIFO with
   its tombstones, the retirement list in its original order, the
   aux-entry claims, the evicted-entry set, and the live link graph as
   (from, slot, target) triples.  Block-indexed tables are written as
   ascending addresses (block ids increase with address), so the bytes do
   not depend on the table layout.  The dispatch array itself is not
   saved: restore rebuilds it from the live set and the aux claims.

   The aux claims ARE saved explicitly rather than rebuilt by replaying
   installs: an aux entry only claims a dispatch slot that was free at its
   own install time, so the claims depend on install order and
   interleaved retirements — replay would have to re-run history.

   [load] is decode-then-commit: the entire stream is parsed and
   cross-validated into local structures first, and the cache is only
   mutated after the last read, so a torn or corrupt section leaves the
   cache exactly as it was (empty, for a fresh restore target).  Import
   emits no telemetry and fires no auditor — restoring is not a lifecycle
   event. *)

(* [(address, v)] for each slot of a block-indexed table that [keep]
   maps to [Some v], in ascending address order. *)
let block_pairs t table keep =
  let acc = ref [] in
  for id = Array.length table - 1 downto 0 do
    let a = (Program.block_of_id t.program id).Block.start in
    match keep a table.(id) with Some v -> acc := (a, v) :: !acc | None -> ()
  done;
  !acc

let emit_pairs emit pairs emit_value =
  emit (List.length pairs);
  List.iter
    (fun (a, v) ->
      emit a;
      emit_value v)
    pairs

let save t emit =
  emit t.next_id;
  emit t.bytes_used;
  emit t.alloc_cursor;
  emit t.now;
  emit t.clock_regressions;
  emit t.evictions;
  emit t.flushes;
  emit t.regenerations;
  emit t.invalidations;
  emit t.blacklist_hits;
  emit t.duplicate_installs;
  emit t.translation_failures;
  emit t.links_created;
  emit t.link_severs;
  emit t.live_links;
  emit t.fifo_tombstones;
  let live = regions t in
  let all = all_regions t in
  emit (List.length all);
  List.iter (fun r -> Region.save r emit) all;
  emit (List.length live);
  List.iter (fun (r : Region.t) -> emit r.Region.id) live;
  emit (Queue.length t.fifo);
  Queue.iter (fun (r : Region.t) -> emit r.Region.id) t.fifo;
  emit (List.length t.retired);
  List.iter (fun (r : Region.t) -> emit r.Region.id) t.retired;
  (* Dispatch slots claimed by a region other than at its own entry. *)
  emit_pairs emit
    (block_pairs t t.dispatch (fun a -> function
       | Some (r : Region.t) when not (Addr.equal a r.Region.entry) -> Some r.Region.id
       | Some _ | None -> None))
    emit;
  emit_pairs emit (block_pairs t t.evicted (fun _ e -> if e then Some () else None)) ignore;
  let triples = ref [] in
  let n_triples = ref 0 in
  List.iter
    (fun (r : Region.t) ->
      for slot = 0 to Region.n_link_slots r - 1 do
        match Region.link_target r slot with
        | Some (tgt : Region.t) ->
          incr n_triples;
          triples := (r.Region.id, slot, tgt.Region.id) :: !triples
        | None -> ()
      done)
    live;
  emit !n_triples;
  List.iter
    (fun (from, slot, tgt) ->
      emit from;
      emit slot;
      emit tgt)
    (List.rev !triples)

let read_len read what =
  let n = read () in
  if n < 0 then failwith (Printf.sprintf "Code_cache.load: negative %s length" what);
  n

(* The block id of a loaded address, which must be a block start. *)
let loaded_id t what a =
  let id = id_of t a in
  if id < 0 then failwith (Printf.sprintf "Code_cache.load: %s is not a block start" what);
  id

let load t read =
  let next_id = read () in
  let bytes_used = read () in
  let alloc_cursor = read () in
  let now = read () in
  let clock_regressions = read () in
  let evictions = read () in
  let flushes = read () in
  let regenerations = read () in
  let invalidations = read () in
  let blacklist_hits = read () in
  let duplicate_installs = read () in
  let translation_failures = read () in
  let links_created = read () in
  let link_severs = read () in
  let live_links = read () in
  let fifo_tombstones = read () in
  (* Ids are issued densely and every region ever created is saved, so
     the ids are exactly [0, n_all). *)
  let n_all = read_len read "region" in
  let by_id = Array.make n_all Region.dummy in
  for _ = 1 to n_all do
    let r = Region.load ~program:t.program ~line_bytes:t.line_bytes read in
    let id = r.Region.id in
    if id < 0 || id >= n_all || by_id.(id) != Region.dummy then
      failwith "Code_cache.load: duplicate or out-of-range region id";
    by_id.(id) <- r
  done;
  let resolve id =
    if id < 0 || id >= n_all then failwith "Code_cache.load: unresolved region id";
    by_id.(id)
  in
  let n_live = read_len read "live-set" in
  let live = List.init n_live (fun _ -> resolve (read ())) in
  let n_fifo = read_len read "fifo" in
  let fifo_regions = List.init n_fifo (fun _ -> resolve (read ())) in
  let n_retired = read_len read "retired" in
  let retired = List.init n_retired (fun _ -> resolve (read ())) in
  let dispatch = Array.make (Array.length t.dispatch) None in
  List.iter
    (fun (r : Region.t) ->
      let id = id_of t r.Region.entry in
      if Option.is_some dispatch.(id) then
        failwith "Code_cache.load: two live regions share an entry";
      dispatch.(id) <- Some r)
    live;
  let n_aux = read_len read "aux-entry" in
  for _ = 1 to n_aux do
    let a = read () in
    let r = resolve (read ()) in
    let id = loaded_id t "aux entry" a in
    (* The claimant must be live, claim [a], and find the slot free. *)
    let node = Region.node_of_block_id r id in
    if node <= 0 || not r.Region.node_is_entry.(node) then
      failwith "Code_cache.load: aux entry not claimed by its region";
    (match dispatch.(id_of t r.Region.entry) with
    | Some r' when r' == r -> ()
    | Some _ | None -> failwith "Code_cache.load: aux entry held by a retired region");
    if Option.is_some dispatch.(id) then failwith "Code_cache.load: aux entry slot already claimed";
    dispatch.(id) <- Some r
  done;
  let n_evicted = read_len read "evicted-entry" in
  let evicted = Array.make (Array.length t.evicted) false in
  for _ = 1 to n_evicted do
    evicted.(loaded_id t "evicted entry" (read ())) <- true
  done;
  let n_links = read_len read "link" in
  let links =
    List.init n_links (fun _ ->
        let from = resolve (read ()) in
        let slot = read () in
        let tgt = resolve (read ()) in
        if slot < 0 || slot >= Region.n_link_slots from then
          failwith "Code_cache.load: link slot out of range";
        (from, slot, tgt))
  in
  if live_links <> n_links then failwith "Code_cache.load: live-link count mismatch";
  (* Everything decoded and cross-checked: commit. *)
  t.next_id <- next_id;
  t.bytes_used <- bytes_used;
  t.alloc_cursor <- alloc_cursor;
  t.now <- now;
  t.clock_regressions <- clock_regressions;
  t.evictions <- evictions;
  t.flushes <- flushes;
  t.regenerations <- regenerations;
  t.invalidations <- invalidations;
  t.blacklist_hits <- blacklist_hits;
  t.duplicate_installs <- duplicate_installs;
  t.translation_failures <- translation_failures;
  t.links_created <- links_created;
  t.link_severs <- link_severs;
  t.live_links <- live_links;
  Array.blit dispatch 0 t.dispatch 0 (Array.length dispatch);
  Array.blit evicted 0 t.evicted 0 (Array.length evicted);
  t.incoming_links <- [||];
  Array.fill t.slot_links 0 (Array.length t.slot_links) [];
  let q = Queue.create () in
  List.iter (fun r -> Queue.add r q) fifo_regions;
  t.fifo <- q;
  t.fifo_tombstones <- fifo_tombstones;
  t.retired <- retired;
  List.iter (fun (from, slot, target) -> register_link t ~from ~slot ~target) links

let save_blacklist t emit =
  emit t.fail_installs_until;
  emit_pairs emit
    (block_pairs t t.blacklist (fun _ b -> b))
    (fun b ->
      emit b.fails;
      emit b.until;
      emit (if b.expire_traced then 1 else 0))

let load_blacklist t read =
  let fail_installs_until = read () in
  let n = read_len read "blacklist" in
  let blacklist = Array.make (Array.length t.blacklist) None in
  for _ = 1 to n do
    let entry = read () in
    let fails = read () in
    let until = read () in
    let expire_traced =
      match read () with
      | 0 -> false
      | 1 -> true
      | _ -> failwith "Code_cache.load_blacklist: bad flag"
    in
    if fails < 0 then failwith "Code_cache.load_blacklist: negative failure count";
    let id = id_of t entry in
    if id < 0 then failwith "Code_cache.load_blacklist: entry is not a block start";
    blacklist.(id) <- Some { fails; until; expire_traced }
  done;
  Array.blit blacklist 0 t.blacklist 0 (Array.length blacklist);
  t.fail_installs_until <- fail_installs_until

let reset_blacklist t =
  Array.fill t.blacklist 0 (Array.length t.blacklist) None;
  t.fail_installs_until <- -1

let evictions t = t.evictions
let flushes t = t.flushes
let regenerations t = t.regenerations
let invalidations t = t.invalidations
let blacklist_hits t = t.blacklist_hits
let duplicate_installs t = t.duplicate_installs
let translation_failures t = t.translation_failures
let links_created t = t.links_created
let link_severs t = t.link_severs
let n_links t = t.live_links
