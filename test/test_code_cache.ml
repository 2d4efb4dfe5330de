(* Cache lifecycle tests: Flush_all vs Evict_oldest, regeneration counting,
   aux-entry retirement, and the fault-recovery paths (invalidation,
   blacklisting, translation failures, flat dispatch). *)

open Regionsel_isa
module Region = Regionsel_engine.Region
module Code_cache = Regionsel_engine.Code_cache
module Counters = Regionsel_engine.Counters
module Params = Regionsel_engine.Params
open Fixtures

let mk start size term = Block.make ~start ~size ~term

let spec_at ?(size = 10) start =
  Region.spec_of_path ~kind:Region.Trace
    { Region.blocks = [ mk start size Terminator.Return ]; final_next = None }

let region_cost = (10 * Region.inst_bytes) + Region.stub_bytes

(* A cache whose blacklist never bites, for tests about other machinery. *)
let plain_cache ?capacity_bytes ?eviction ?(program = grid_program ()) () =
  Code_cache.create ?capacity_bytes ?eviction ~blacklist_base_cooldown:0 ~program
    ~icache_line_bytes:Params.default.Params.icache_line_bytes ()

let entry_of (r : Region.t) = r.Region.entry

(* Eviction policies *)

let flush_all_returns_victims () =
  let cache =
    plain_cache ~capacity_bytes:(3 * region_cost) ~eviction:Params.Flush_all ()
  in
  for i = 0 to 2 do
    ignore (Code_cache.install_exn cache (spec_at (i * 16)))
  done;
  ignore (Code_cache.install_exn cache (spec_at 100));
  check_int "one flush" 1 (Code_cache.flushes cache);
  check_int "three evictions" 3 (Code_cache.evictions cache);
  check_int "only the newcomer lives" 1 (Code_cache.n_regions cache);
  check_true "newcomer dispatchable" (Code_cache.find cache 100 <> None)

let fifo_skips_tombstones () =
  (* Invalidating the oldest region leaves a tombstone in the FIFO; the
     next capacity eviction must skip it and take the oldest *live*
     region, and the skipped tombstone costs no extra eviction. *)
  let cache =
    plain_cache ~capacity_bytes:(3 * region_cost) ~eviction:Params.Evict_oldest ()
  in
  for i = 0 to 2 do
    ignore (Code_cache.install_exn cache (spec_at (i * 16)))
  done;
  (* Retire region 0 (blocks [0,9]) out of band via invalidation. *)
  let retired = Code_cache.invalidate_range cache ~lo:0 ~hi:0 in
  check_int "one invalidated" 1 (List.length retired);
  check_int "two live" 2 (Code_cache.n_regions cache);
  (* Two more installs fit without eviction (invalidation freed a slot)... *)
  ignore (Code_cache.install_exn cache (spec_at 100));
  check_int "no capacity eviction yet" 0 (Code_cache.evictions cache);
  (* ...and the next overflow pops the tombstone, then evicts region 16. *)
  ignore (Code_cache.install_exn cache (spec_at 200));
  check_int "exactly one eviction" 1 (Code_cache.evictions cache);
  check_true "oldest live region evicted" (Code_cache.find cache 16 = None);
  check_true "younger region survives" (Code_cache.find cache 32 <> None)

let fifo_shock_frees_requested_bytes () =
  let cache = plain_cache ~eviction:Params.Evict_oldest () in
  for i = 0 to 4 do
    ignore (Code_cache.install_exn cache (spec_at (i * 16)))
  done;
  let retired = Code_cache.shock cache ~bytes:(2 * region_cost) in
  check_int "exactly the two oldest retired" 2 (List.length retired);
  Alcotest.(check (list int)) "oldest first" [ 0; 16 ] (List.map entry_of retired);
  check_int "three live" 3 (Code_cache.n_regions cache)

let flush_shock_empties_cache () =
  let cache = plain_cache ~eviction:Params.Flush_all () in
  for i = 0 to 2 do
    ignore (Code_cache.install_exn cache (spec_at (i * 16)))
  done;
  let retired = Code_cache.shock cache ~bytes:1 in
  check_int "everything retired" 3 (List.length retired);
  check_int "cache empty" 0 (Code_cache.n_regions cache);
  check_int "counted as a flush" 1 (Code_cache.flushes cache);
  check_int "no-op shock on empty cache" 0 (List.length (Code_cache.shock cache ~bytes:1))

(* Regeneration counting *)

let regeneration_after_invalidation () =
  let cache = plain_cache () in
  ignore (Code_cache.install_exn cache (spec_at 0));
  ignore (Code_cache.invalidate_range cache ~lo:0 ~hi:0);
  ignore (Code_cache.install_exn cache (spec_at 0));
  check_int "re-selecting an invalidated entry is a regeneration" 1
    (Code_cache.regenerations cache);
  check_int "invalidation is not an eviction" 0 (Code_cache.evictions cache);
  check_int "one invalidation" 1 (Code_cache.invalidations cache)

(* Aux entries *)

let aux_spec ~entry ~aux =
  (* Two Return blocks; the second is an aux entry (a method-region
     continuation). *)
  {
    Region.entry;
    nodes = [ mk entry 4 Terminator.Return; mk aux 4 Terminator.Return ];
    edges = [];
    kind = Region.Method;
    aux_entries = [ aux ];
    layout_hint = [];
  }

let aux_entries_retired_with_region () =
  let cache = plain_cache () in
  ignore (Code_cache.install_exn cache (aux_spec ~entry:0 ~aux:16));
  check_true "aux entry dispatchable" (Code_cache.find cache 16 <> None);
  (* Dirty only the aux block: the whole region must go, including the
     aux index slot. *)
  let retired = Code_cache.invalidate_range cache ~lo:18 ~hi:18 in
  check_int "region retired via aux block" 1 (List.length retired);
  check_true "entry gone" (Code_cache.find cache 0 = None);
  check_true "aux slot gone" (Code_cache.find cache 16 = None);
  (* A later region claiming the same aux address is not clobbered by the
     old region's retirement. *)
  ignore (Code_cache.install_exn cache (aux_spec ~entry:32 ~aux:16));
  check_true "new claimant resolves" (Code_cache.find cache 16 <> None)

let invalidate_range_is_span_based () =
  let cache = plain_cache () in
  ignore (Code_cache.install_exn cache (spec_at 0)) (* blocks [0, 9] *);
  ignore (Code_cache.install_exn cache (spec_at 32)) (* blocks [32, 41] *);
  check_int "disjoint write hits nothing" 0
    (List.length (Code_cache.invalidate_range cache ~lo:16 ~hi:20));
  check_int "overlapping write hits one region" 1
    (List.length (Code_cache.invalidate_range cache ~lo:8 ~hi:12));
  check_true "other region untouched" (Code_cache.find cache 32 <> None)

(* Blacklisting *)

let blacklist_backoff_and_expiry () =
  let cache = grid_cache ~blacklist_base_cooldown:100 ~blacklist_max_shift:2 () in
  Code_cache.set_now cache 1_000;
  ignore (Code_cache.invalidate_range cache ~lo:0 ~hi:0) (* nothing live: no fail *);
  ignore (Code_cache.install_exn cache (spec_at 0));
  ignore (Code_cache.invalidate_range cache ~lo:0 ~hi:0);
  check_int "first failure: base cooldown" 1_100 (Code_cache.blacklisted_until cache 0);
  check_int "one entry blacklisted" 1 (Code_cache.n_blacklisted cache);
  (* Re-selection during the cooldown is rejected and counted. *)
  check_true "install rejected while blacklisted"
    (Code_cache.install cache (spec_at 0) = Error Code_cache.Blacklisted);
  check_int "blacklist hit counted" 1 (Code_cache.blacklist_hits cache);
  (* After the cooldown the entry is admitted again... *)
  Code_cache.set_now cache 1_200;
  ignore (Code_cache.install_exn cache (spec_at 0));
  (* ...and a repeat failure doubles the cooldown, capped at base lsl 2. *)
  ignore (Code_cache.invalidate_range cache ~lo:0 ~hi:0);
  check_int "second failure: doubled" (1_200 + 200) (Code_cache.blacklisted_until cache 0);
  Code_cache.set_now cache 2_000;
  ignore (Code_cache.install_exn cache (spec_at 0));
  ignore (Code_cache.invalidate_range cache ~lo:0 ~hi:0);
  Code_cache.set_now cache 3_000;
  ignore (Code_cache.install_exn cache (spec_at 0));
  ignore (Code_cache.invalidate_range cache ~lo:0 ~hi:0);
  check_int "backoff capped" (3_000 + 400) (Code_cache.blacklisted_until cache 0)

let translation_failures_fail_next_installs () =
  let cache = grid_cache ~blacklist_base_cooldown:500 () in
  Code_cache.arm_translation_failures cache ~window:50;
  check_true "first armed install fails"
    (Code_cache.install cache (spec_at 0) = Error Code_cache.Translation_failed);
  check_true "second armed install fails"
    (Code_cache.install cache (spec_at 16) = Error Code_cache.Translation_failed);
  check_int "failures counted" 2 (Code_cache.translation_failures cache);
  check_int "nothing installed" 0 (Code_cache.n_regions cache);
  (* Past the window the translator works again, but the entries that
     failed inside it are now blacklisted. *)
  Code_cache.set_now cache 100;
  check_true "failed entry blacklisted"
    (Code_cache.install cache (spec_at 0) = Error Code_cache.Blacklisted);
  (* A fresh entry installs fine. *)
  ignore (Code_cache.install_exn cache (spec_at 32));
  check_int "fresh entry installed" 1 (Code_cache.n_regions cache);
  (* And the blacklisted one recovers once its cooldown passes. *)
  Code_cache.set_now cache 600;
  ignore (Code_cache.install_exn cache (spec_at 0));
  check_int "blacklisted entry recovered" 2 (Code_cache.n_regions cache)

let duplicate_reported_not_raised () =
  let cache = plain_cache () in
  ignore (Code_cache.install_exn cache (spec_at 0));
  check_true "duplicate is a typed rejection"
    (Code_cache.install cache (spec_at 0) = Error Code_cache.Duplicate_entry);
  check_int "duplicate counted" 1 (Code_cache.duplicate_installs cache);
  check_int "cache unchanged" 1 (Code_cache.n_regions cache)

(* Flat dispatch array *)

let dispatch_tracks_lifecycle () =
  let program =
    Program.of_blocks_exn ~entry:0
      [ mk 0 10 Terminator.Return; mk 16 10 Terminator.Return ]
  in
  let cache = plain_cache ~program () in
  let id_of a = Program.block_id program a in
  check_true "empty cache dispatches nothing" (Code_cache.dispatch cache (id_of 0) = None);
  let r = Code_cache.install_exn cache (spec_at 0) in
  check_true "installed region dispatches" (Code_cache.dispatch cache (id_of 0) = Some r);
  check_true "non-start address dispatches nothing" (Code_cache.dispatch cache (id_of 5) = None);
  check_true "other block dispatches nothing" (Code_cache.dispatch cache (id_of 16) = None);
  ignore (Code_cache.invalidate_range cache ~lo:0 ~hi:0);
  check_true "invalidated region no longer dispatches"
    (Code_cache.dispatch cache (id_of 0) = None);
  let r2 = Code_cache.install_exn cache (spec_at 16) in
  ignore (Code_cache.flush_all cache);
  check_true "flush clears dispatch" (Code_cache.dispatch cache (id_of 16) = None);
  check_true "flush retired the region" (not (Code_cache.is_live cache r2))

let dispatch_matches_find () =
  (* The flat array and the hash index must agree on every block. *)
  let blocks = List.init 8 (fun i -> mk (i * 16) 10 Terminator.Return) in
  let program = Program.of_blocks_exn ~entry:0 blocks in
  let cache = plain_cache ~program ~capacity_bytes:(3 * region_cost) ~eviction:Params.Evict_oldest () in
  List.iteri
    (fun i _ -> if i land 1 = 0 then ignore (Code_cache.install_exn cache (spec_at (i * 16))))
    blocks;
  ignore (Code_cache.invalidate_range cache ~lo:64 ~hi:70);
  List.iteri
    (fun i _ ->
      let a = i * 16 in
      check_true "dispatch = find"
        (Code_cache.dispatch cache (Program.block_id program a) = Code_cache.find cache a))
    blocks

(* Inter-region links.  The invariant under test: no link may outlive its
   target region, and a link always agrees with the dispatch array. *)

let linked_pair () =
  (* Two single-block regions with a link r0 -> r1 through block 16. *)
  let program =
    Program.of_blocks_exn ~entry:0
      [ mk 0 10 Terminator.Return; mk 16 10 Terminator.Return; mk 32 10 Terminator.Return ]
  in
  let cache = plain_cache ~program ~eviction:Params.Evict_oldest () in
  let r0 = Code_cache.install_exn cache (spec_at 0) in
  let r1 = Code_cache.install_exn cache (spec_at 16) in
  let slot = Program.block_id program 16 in
  Code_cache.add_link cache ~from:r0 ~slot ~target:r1;
  program, cache, r0, r1, slot

let invalidation_severs_links () =
  let program, cache, r0, r1, slot = linked_pair () in
  check_int "one live link" 1 (Code_cache.n_links cache);
  check_true "slot patched" (Region.link_target r0 slot = Some r1);
  ignore (Code_cache.invalidate_range cache ~lo:16 ~hi:16);
  check_true "link severed with its target" (Region.link_target r0 slot = None);
  check_int "no live links" 0 (Code_cache.n_links cache);
  check_int "sever counted" 1 (Code_cache.link_severs cache);
  (* Reinstalling the target must not resurrect the old link: the source
     re-links only after a fresh dispatch. *)
  Code_cache.set_now cache 1_000_000;
  ignore (Code_cache.install_exn cache (spec_at 16));
  check_true "no resurrection on reinstall" (Region.link_target r0 slot = None);
  ignore program

let eviction_severs_links () =
  (* r1 -> r0; evicting r0 (the FIFO-oldest) must unpatch r1's slot. *)
  let program =
    Program.of_blocks_exn ~entry:0
      [ mk 0 10 Terminator.Return; mk 16 10 Terminator.Return; mk 32 10 Terminator.Return ]
  in
  let cache =
    plain_cache ~program ~capacity_bytes:(2 * region_cost) ~eviction:Params.Evict_oldest ()
  in
  let r0 = Code_cache.install_exn cache (spec_at 0) in
  let r1 = Code_cache.install_exn cache (spec_at 16) in
  let slot = Program.block_id program 0 in
  Code_cache.add_link cache ~from:r1 ~slot ~target:r0;
  ignore (Code_cache.install_exn cache (spec_at 32));
  check_true "oldest region evicted" (Code_cache.find cache 0 = None);
  check_true "link into the victim severed" (Region.link_target r1 slot = None);
  check_int "no live links" 0 (Code_cache.n_links cache);
  check_int "sever counted" 1 (Code_cache.link_severs cache)

let flush_severs_all_links () =
  (* Mutual links; a flush retires both regions and leaves nothing live. *)
  let program =
    Program.of_blocks_exn ~entry:0 [ mk 0 10 Terminator.Return; mk 16 10 Terminator.Return ]
  in
  let cache = plain_cache ~program () in
  let r0 = Code_cache.install_exn cache (spec_at 0) in
  let r1 = Code_cache.install_exn cache (spec_at 16) in
  let s0 = Program.block_id program 0 and s1 = Program.block_id program 16 in
  Code_cache.add_link cache ~from:r0 ~slot:s1 ~target:r1;
  Code_cache.add_link cache ~from:r1 ~slot:s0 ~target:r0;
  check_int "two live links" 2 (Code_cache.n_links cache);
  check_int "two created" 2 (Code_cache.links_created cache);
  ignore (Code_cache.flush_all cache);
  check_int "no live links after flush" 0 (Code_cache.n_links cache);
  check_true "both slots unpatched"
    (Region.link_target r0 s1 = None && Region.link_target r1 s0 = None)

let colliding_aux_entry_does_not_steal_slot () =
  (* Pinned by the sanitizer PR: an install whose aux entry collides with a
     live region's entry must NOT steal its dispatch slot.  The old steal
     semantics left the claimant live-but-undispatchable — [find] and
     [dispatch] disagreed, a later install of the same entry silently
     overwrote the zombie's index slot, and its bytes leaked from the
     accounting forever.  First claimant wins; links stay valid. *)
  let program, cache, r0, r1, slot = linked_pair () in
  let r2 = Code_cache.install_exn cache (aux_spec ~entry:32 ~aux:16) in
  check_true "existing link survives" (Region.link_target r0 slot = Some r1);
  check_int "one live link" 1 (Code_cache.n_links cache);
  check_true "claimant keeps its dispatch slot"
    (Code_cache.dispatch cache slot = Some r1);
  check_true "find and dispatch agree" (Code_cache.find cache 16 = Some r1);
  check_true "newcomer dispatchable at its own entry"
    (Code_cache.dispatch cache (Program.block_id program 32) = Some r2);
  (* Retiring the newcomer must not clobber the claimant's slot. *)
  ignore (Code_cache.invalidate_range cache ~lo:32 ~hi:32);
  check_true "claimant still dispatchable after newcomer retires"
    (Code_cache.dispatch cache slot = Some r1);
  check_true "claimant still live" (Code_cache.is_live cache r1)

let fifo_tombstones_bounded () =
  (* Regression (sanitizer PR): on an unbounded cache, regions retired by
     invalidation used to linger in the FIFO forever — nothing ever popped
     them.  Under a shock-heavy install/invalidate schedule the queue must
     stay bounded by the live population (plus the compaction floor). *)
  let cache = plain_cache () in
  let peak = ref 0 in
  for round = 0 to 199 do
    let base = round * 64 in
    for i = 0 to 3 do
      ignore (Code_cache.install_exn cache (spec_at (base + (i * 16))))
    done;
    (* Dirty the whole round's range: all four regions retire in place. *)
    ignore (Code_cache.invalidate_range cache ~lo:base ~hi:(base + 63));
    peak := max !peak (Code_cache.fifo_length cache)
  done;
  check_int "no live regions left" 0 (Code_cache.n_regions cache);
  check_int "800 invalidations" 800 (Code_cache.invalidations cache);
  check_true
    (Printf.sprintf "peak queue length bounded (saw %d)" !peak)
    (!peak <= 16);
  check_true "tombstone count consistent with queue"
    (Code_cache.fifo_length cache - Code_cache.fifo_tombstones cache
    = Code_cache.n_regions cache)

let set_now_clamps_stale_stamps () =
  (* Hardening (sanitizer PR): a non-monotone stamp is clamped, never
     applied, and counted so the sanitizer can flag the caller. *)
  let cache = plain_cache () in
  Code_cache.set_now cache 100;
  check_int "clock advanced" 100 (Code_cache.now cache);
  Code_cache.set_now cache 40;
  check_int "stale stamp clamped" 100 (Code_cache.now cache);
  check_int "regression counted" 1 (Code_cache.clock_regressions cache);
  Code_cache.set_now cache 100;
  check_int "equal stamp is not a regression" 1 (Code_cache.clock_regressions cache);
  Code_cache.set_now cache 250;
  check_int "clock advances again" 250 (Code_cache.now cache)

let auditor_fires_on_mutations () =
  let cache = plain_cache () in
  let ops = ref [] in
  Code_cache.set_auditor cache (fun op -> ops := op :: !ops);
  ignore (Code_cache.install_exn cache (spec_at 0));
  ignore (Code_cache.invalidate_range cache ~lo:0 ~hi:0);
  Code_cache.set_now cache 10;
  Code_cache.set_now cache 5;
  ignore (Code_cache.flush_all cache);
  Alcotest.(check (list string))
    "mutations audited in order"
    [ "install"; "invalidate"; "set-now"; "flush" ]
    (List.rev !ops);
  Code_cache.clear_auditor cache;
  ignore (Code_cache.install_exn cache (spec_at 16));
  check_int "cleared auditor is silent" 4 (List.length !ops)

let link_guards () =
  let program, cache, r0, r1, slot = linked_pair () in
  (* First link wins: re-linking an occupied slot is a no-op. *)
  Code_cache.add_link cache ~from:r0 ~slot ~target:r0;
  check_true "occupied slot unchanged" (Region.link_target r0 slot = Some r1);
  check_int "no second creation" 1 (Code_cache.links_created cache);
  (* Out-of-range slots are ignored. *)
  Code_cache.add_link cache ~from:r0 ~slot:(-1) ~target:r1;
  Code_cache.add_link cache ~from:r0 ~slot:9_999 ~target:r1;
  check_int "still one live link" 1 (Code_cache.n_links cache);
  ignore program

(* Byte quotas (the multi-stream scheduler's per-tenant share of a global
   budget).  Admission honours [min capacity quota]; tightening evicts
   oldest-first whatever the eviction policy; an oversized spec is a typed
   reject with no cache mutation. *)

let quota_tightening_evicts_oldest_first () =
  (* Flush_all policy on purpose: quota pressure must NOT flush, it must
     shed oldest-first — the tenant did nothing wrong when the global
     budget shifted. *)
  let cache = plain_cache ~eviction:Params.Flush_all () in
  for i = 0 to 4 do
    ignore (Code_cache.install_exn cache (spec_at (i * 16)))
  done;
  check_true "no quota by default" (Code_cache.quota cache = None);
  let retired = Code_cache.set_quota cache (Some (3 * region_cost)) in
  Alcotest.(check (list int)) "two oldest retired, in age order" [ 0; 16 ]
    (List.map entry_of retired);
  check_int "quota evictions counted" 2 (Code_cache.quota_evictions cache);
  check_int "no flush happened" 0 (Code_cache.flushes cache);
  check_int "three live" 3 (Code_cache.n_regions cache);
  check_true "footprint within quota"
    (Code_cache.bytes_used cache <= 3 * region_cost);
  check_true "quota readable" (Code_cache.quota cache = Some (3 * region_cost));
  (* Loosening (or matching) the footprint retires nothing. *)
  check_int "no-op retighten" 0
    (List.length (Code_cache.set_quota cache (Some (4 * region_cost))))

let quota_bounds_admission () =
  (* Unbounded capacity, quota of two regions: the third install evicts
     the oldest under the effective bound. *)
  let cache = plain_cache ~eviction:Params.Evict_oldest () in
  ignore (Code_cache.set_quota cache (Some (2 * region_cost)));
  for i = 0 to 2 do
    ignore (Code_cache.install_exn cache (spec_at (i * 16)))
  done;
  check_int "two live under quota" 2 (Code_cache.n_regions cache);
  check_true "oldest evicted" (Code_cache.find cache 0 = None);
  check_true "newcomers live"
    (Code_cache.find cache 16 <> None && Code_cache.find cache 32 <> None);
  (* A quota tighter than capacity wins over capacity... *)
  let tight =
    plain_cache ~capacity_bytes:(10 * region_cost) ~eviction:Params.Evict_oldest ()
  in
  ignore (Code_cache.set_quota tight (Some (1 * region_cost)));
  ignore (Code_cache.install_exn tight (spec_at 0));
  ignore (Code_cache.install_exn tight (spec_at 16));
  check_int "quota tighter than capacity wins" 1 (Code_cache.n_regions tight);
  (* ...and capacity tighter than quota still applies. *)
  let cap = plain_cache ~capacity_bytes:region_cost ~eviction:Params.Evict_oldest () in
  ignore (Code_cache.set_quota cap (Some (100 * region_cost)));
  ignore (Code_cache.install_exn cap (spec_at 0));
  ignore (Code_cache.install_exn cap (spec_at 16));
  check_int "capacity tighter than quota wins" 1 (Code_cache.n_regions cap)

let oversized_spec_is_typed_reject () =
  let cache = plain_cache ~eviction:Params.Evict_oldest () in
  ignore (Code_cache.install_exn cache (spec_at 0));
  let bytes_before = Code_cache.bytes_used cache in
  ignore (Code_cache.set_quota cache (Some (2 * region_cost)));
  (* A spec that alone exceeds the quota can never fit, whatever is
     evicted: reject without touching the cache. *)
  let huge = spec_at ~size:100 200 in
  check_true "oversized spec rejected"
    (Code_cache.install cache huge = Error Code_cache.Quota_exceeded);
  check_int "reject counted" 1 (Code_cache.quota_rejects cache);
  check_int "no eviction attempted" 0 (Code_cache.quota_evictions cache);
  check_int "resident region untouched" 1 (Code_cache.n_regions cache);
  check_int "accounting untouched" bytes_before (Code_cache.bytes_used cache);
  check_true "rejection is printable"
    (Code_cache.reject_to_string Code_cache.Quota_exceeded = "quota-exceeded");
  (* The region id was not consumed by the reject: the next admitted
     region's id is contiguous with the last one's. *)
  let r = Code_cache.install_exn cache (spec_at 16) in
  check_int "region id not consumed by reject" 1 r.Region.id

let clearing_quota_lifts_the_bound () =
  let cache = plain_cache ~eviction:Params.Evict_oldest () in
  ignore (Code_cache.set_quota cache (Some region_cost));
  ignore (Code_cache.install_exn cache (spec_at 0));
  ignore (Code_cache.install_exn cache (spec_at 16));
  check_int "bounded while quota set" 1 (Code_cache.n_regions cache);
  check_int "clearing retires nothing" 0 (List.length (Code_cache.set_quota cache None));
  check_true "quota cleared" (Code_cache.quota cache = None);
  for i = 2 to 9 do
    ignore (Code_cache.install_exn cache (spec_at (i * 16)))
  done;
  check_int "unbounded again" 9 (Code_cache.n_regions cache);
  check_true "negative quota rejected"
    (try
       ignore (Code_cache.set_quota cache (Some (-1)));
       false
     with Invalid_argument _ -> true)

(* Input checks.  Every table the cache and the counter pool keep is
   indexed by block id, so an address that is not a block start of the
   program is refused: installs and bumps raise, loaders fail without
   touching the target. *)

let small_program () =
  Program.of_blocks_exn ~entry:0 (List.init 4 (fun i -> mk (i * 16) 4 Terminator.Return))

let installs_and_bumps_reject_non_block_addresses () =
  let program = small_program () in
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  let cache = plain_cache ~program () in
  check_true "install at a non-block entry raises"
    (raises (fun () -> Code_cache.install cache (spec_at ~size:4 2)));
  check_true "install with a non-block node raises"
    (raises (fun () -> Code_cache.install cache (aux_spec ~entry:0 ~aux:20)));
  check_int "nothing installed" 0 (Code_cache.n_regions cache);
  let counters = Counters.create program in
  check_true "bump at a non-block address raises" (raises (fun () -> Counters.incr counters 2));
  check_int "no counter allocated" 0 (Counters.live counters)

(* Replace the [i]th int of a saved stream. *)
let with_nth ints i v = List.mapi (fun j x -> if j = i then v else x) ints

let loaders_reject_non_block_addresses () =
  let program = small_program () in
  (* Source: two method regions with an aux entry at 48.  The first is
     retired by an invalidation (entry 0 evicted and blacklisted), so the
     second, live one holds the aux slot. *)
  let source = plain_cache ~program () in
  let retired = Code_cache.install_exn source (aux_spec ~entry:0 ~aux:48) in
  ignore (Code_cache.invalidate_range source ~lo:0 ~hi:0);
  let live = Code_cache.install_exn source (aux_spec ~entry:32 ~aux:48) in
  let stream = saved_ints (Code_cache.save source) in
  (* With no links the stream ends: aux claims, evicted entries, links. *)
  let n = List.length stream in
  Alcotest.(check (list int)) "stream tail" [ 1; 48; live.Region.id; 1; 0; 0 ]
    (List.filteri (fun i _ -> i >= n - 6) stream);
  let target = plain_cache ~program () in
  ignore (Code_cache.install_exn target (spec_at ~size:4 16));
  let cache_rejects what malformed =
    check_load_is_atomic ~what ~save:(Code_cache.save target) ~load:(Code_cache.load target)
      malformed
  in
  cache_rejects "aux entry off a block start" (with_nth stream (n - 5) 50);
  cache_rejects "evicted entry off a block start" (with_nth stream (n - 2) 2);
  cache_rejects "aux entry its region does not claim" (with_nth stream (n - 5) 32);
  cache_rejects "aux entry held by a retired region"
    (with_nth stream (n - 4) retired.Region.id);
  (* The untouched stream restores the source exactly. *)
  let copy = plain_cache ~program () in
  Code_cache.load copy (reader_of_ints stream);
  Alcotest.(check (list int)) "round trip" stream (saved_ints (Code_cache.save copy));
  (* Blacklist: [fail_installs_until; n; entry; fails; until; flag]. *)
  let blacklist = saved_ints (Code_cache.save_blacklist source) in
  check_int "one blacklisted entry" 0 (List.nth blacklist 2);
  check_load_is_atomic ~what:"blacklist entry off a block start"
    ~save:(Code_cache.save_blacklist target) ~load:(Code_cache.load_blacklist target)
    (with_nth blacklist 2 2);
  (* Counters: [n; address; count; high_water; total_allocations]. *)
  let counters = Counters.create program in
  ignore (Counters.incr counters 16 : int);
  let pool = Counters.create program in
  ignore (Counters.incr pool 48 : int);
  let counts = saved_ints (Counters.save counters) in
  Alcotest.(check (list int)) "counter stream" [ 1; 16; 1; 1; 1 ] counts;
  check_load_is_atomic ~what:"counter address off a block start" ~save:(Counters.save pool)
    ~load:(Counters.load pool) (with_nth counts 1 20)

let suite =
  [
    case "flush_all returns victims" flush_all_returns_victims;
    case "fifo skips tombstones" fifo_skips_tombstones;
    case "fifo shock frees requested bytes" fifo_shock_frees_requested_bytes;
    case "flush shock empties cache" flush_shock_empties_cache;
    case "regeneration after invalidation" regeneration_after_invalidation;
    case "aux entries retired with region" aux_entries_retired_with_region;
    case "invalidate_range is span based" invalidate_range_is_span_based;
    case "blacklist backoff and expiry" blacklist_backoff_and_expiry;
    case "translation failures fail next installs" translation_failures_fail_next_installs;
    case "duplicate reported not raised" duplicate_reported_not_raised;
    case "dispatch tracks lifecycle" dispatch_tracks_lifecycle;
    case "dispatch matches find" dispatch_matches_find;
    case "invalidation severs links" invalidation_severs_links;
    case "eviction severs links" eviction_severs_links;
    case "flush severs all links" flush_severs_all_links;
    case "colliding aux entry does not steal slot" colliding_aux_entry_does_not_steal_slot;
    case "fifo tombstones bounded" fifo_tombstones_bounded;
    case "set_now clamps stale stamps" set_now_clamps_stale_stamps;
    case "auditor fires on mutations" auditor_fires_on_mutations;
    case "link guards" link_guards;
    case "quota tightening evicts oldest first" quota_tightening_evicts_oldest_first;
    case "quota bounds admission" quota_bounds_admission;
    case "oversized spec is a typed reject" oversized_spec_is_typed_reject;
    case "clearing quota lifts the bound" clearing_quota_lifts_the_bound;
    case "installs and bumps reject non-block addresses"
      installs_and_bumps_reject_non_block_addresses;
    case "loaders reject non-block addresses" loaders_reject_non_block_addresses;
  ]
