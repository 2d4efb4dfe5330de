(* Unit tests for the I-cache model and the region cache-layout plumbing
   that feeds it. *)

module Icache = Regionsel_engine.Icache
module Region = Regionsel_engine.Region
module Code_cache = Regionsel_engine.Code_cache
module Simulator = Regionsel_engine.Simulator
module Policies = Regionsel_core.Policies
open Regionsel_isa
open Fixtures

let mk start size term = Block.make ~start ~size ~term

let cold_miss_then_hit () =
  let c = Icache.create ~size_bytes:256 ~line_bytes:16 ~ways:2 () in
  Icache.access c ~addr:0 ~bytes:8;
  check_int "one access" 1 (Icache.accesses c);
  check_int "cold miss" 1 (Icache.misses c);
  Icache.access c ~addr:8 ~bytes:8;
  check_int "same line hits" 1 (Icache.misses c)

let multi_line_fetch () =
  let c = Icache.create ~size_bytes:256 ~line_bytes:16 ~ways:2 () in
  Icache.access c ~addr:0 ~bytes:40;
  check_int "three lines touched" 3 (Icache.accesses c);
  check_int "three cold misses" 3 (Icache.misses c)

let lru_within_set () =
  (* 2 ways, 8 sets with this geometry: addresses 0, 128 and 256 all map to
     set 0 at 16-byte lines x 8 sets. *)
  let c = Icache.create ~size_bytes:256 ~line_bytes:16 ~ways:2 () in
  Icache.access c ~addr:0 ~bytes:1;
  Icache.access c ~addr:128 ~bytes:1;
  Icache.access c ~addr:0 ~bytes:1 (* refresh 0; 128 becomes LRU *);
  Icache.access c ~addr:256 ~bytes:1 (* evicts 128 *);
  Icache.access c ~addr:0 ~bytes:1;
  check_int "0 survived (LRU evicted 128)" 3 (Icache.misses c);
  Icache.access c ~addr:128 ~bytes:1;
  check_int "128 was evicted" 4 (Icache.misses c)

let miss_rate_and_reset () =
  let c = Icache.create () in
  check_true "empty rate" (Icache.miss_rate c = 0.0);
  Icache.access c ~addr:0 ~bytes:4;
  Icache.access c ~addr:0 ~bytes:4;
  check_true "rate is misses over accesses" (abs_float (Icache.miss_rate c -. 0.5) < 1e-9);
  Icache.reset c;
  check_int "reset clears counters" 0 (Icache.accesses c);
  Icache.access c ~addr:0 ~bytes:4;
  check_int "reset clears contents too" 1 (Icache.misses c)

let bad_geometry_rejected () =
  check_true "non power-of-two sets rejected"
    (try
       ignore (Icache.create ~size_bytes:96 ~line_bytes:16 ~ways:2 ());
       false
     with Invalid_argument _ -> true)

let layout_assigned_at_install () =
  let cache = grid_cache () in
  let spec b = Region.spec_of_path ~kind:Region.Trace { Region.blocks = [ b ]; final_next = None } in
  let r1 = Code_cache.install_exn cache (spec (mk 0 10 Terminator.Return)) in
  let r2 = Code_cache.install_exn cache (spec (mk 100 5 Terminator.Return)) in
  Alcotest.(check (option int)) "first region at base 0" (Some 0) (Region.block_cache_addr r1 0);
  Alcotest.(check (option int)) "second region after the first"
    (Some (Region.cache_bytes r1))
    (Region.block_cache_addr r2 100);
  Alcotest.(check (option int)) "non-node has no layout" None (Region.block_cache_addr r1 99)

let layout_entry_first () =
  (* Even when the entry block has the highest address, it is laid out
     first in the region. *)
  let low = mk 0 4 (Terminator.Jump 100) in
  let high = mk 100 4 (Terminator.Jump 0) in
  let cache = grid_cache () in
  let r =
    Code_cache.install_exn cache
      (Region.spec_of_path ~kind:Region.Trace
         { Region.blocks = [ high; low ]; final_next = Some 100 })
  in
  Alcotest.(check (option int)) "entry at offset 0" (Some 0) (Region.block_cache_addr r 100);
  Alcotest.(check (option int)) "other block after it" (Some 16) (Region.block_cache_addr r 0)

let uninstalled_region_has_no_layout () =
  let r =
    Region.of_spec ~id:0 ~selected_at:0 ~program:(grid_program ())
      (Region.spec_of_path ~kind:Region.Trace
         { Region.blocks = [ mk 0 4 Terminator.Return ]; final_next = None })
  in
  Alcotest.(check (option int)) "no address before install" None (Region.block_cache_addr r 0)

let simulator_drives_icache () =
  let result = run Policies.net (simple_loop ~trip:20_000 ()) in
  let accesses = Icache.accesses result.Simulator.icache in
  check_true "cached execution touched the icache" (accesses > 10_000);
  check_true "a resident loop almost always hits"
    (Icache.miss_rate result.Simulator.icache < 0.01)

let combination_lowers_misses_on_figure4 () =
  let rate policy = Icache.miss_rate (run policy (figure4 ())).Simulator.icache in
  check_true "combined region is denser than split traces"
    (rate Policies.combined_net <= rate Policies.net)

(* The reference: one list per set, the ways in slot order, each a
   [(tag, last use)] pair; invalid ways hold tag -1 and time 0.  A miss
   fills the first way with the oldest last use, as an LRU cache that
   fills its ways in order does. *)
module Reference = struct
  type t = {
    line_bytes : int;
    ways : int;
    sets : (int * int) list array;
    mutable clock : int;
    mutable accesses : int;
    mutable misses : int;
  }

  let create ~n_sets ~line_bytes ~ways =
    {
      line_bytes;
      ways;
      sets = Array.make n_sets (List.init ways (fun _ -> -1, 0));
      clock = 0;
      accesses = 0;
      misses = 0;
    }

  let touch c line =
    c.clock <- c.clock + 1;
    c.accesses <- c.accesses + 1;
    let set = line mod Array.length c.sets in
    let ways = c.sets.(set) in
    let replace victim = List.mapi (fun i w -> if i = victim then line, c.clock else w) ways in
    match List.find_index (fun (tag, _) -> tag = line) ways with
    | Some i -> c.sets.(set) <- replace i
    | None ->
        c.misses <- c.misses + 1;
        let oldest = List.fold_left (fun m (_, used) -> min m used) max_int ways in
        c.sets.(set) <- replace (Option.get (List.find_index (fun (_, u) -> u = oldest) ways))

  let access c ~addr ~bytes =
    for line = addr / c.line_bytes to (addr + bytes - 1) / c.line_bytes do
      touch c line
    done

  (* [Icache.save]'s stream: slot count, every tag, every stamp, then
     the counters. *)
  let save c =
    let slots = List.concat (Array.to_list c.sets) in
    (List.length slots :: List.map fst slots)
    @ List.map snd slots
    @ [ c.clock; c.accesses; c.misses ]
end

let saved c =
  let out = ref [] in
  Icache.save c (fun v -> out := v :: !out);
  List.rev !out

(* 1, 2 and 4 ways; 16- and 64-byte lines (the shift path) and 24- and
   48-byte lines (the division path); 1 to 8 sets.  Addresses span a few
   times the cache so sets conflict, and a fetch covers up to 3 lines. *)
let qcheck_reference =
  let geometry =
    QCheck.Gen.(triple (oneofl [ 1; 2; 4 ]) (oneofl [ 16; 24; 48; 64 ]) (oneofl [ 1; 2; 4; 8 ]))
  in
  let gen =
    QCheck.Gen.(
      geometry >>= fun (ways, line_bytes, n_sets) ->
      let span = 4 * ways * line_bytes * n_sets in
      map
        (fun fetches -> (ways, line_bytes, n_sets), fetches)
        (list_size (int_range 1 300) (pair (int_bound span) (int_range 1 (3 * line_bytes)))))
  in
  let print ((ways, line_bytes, n_sets), fetches) =
    Printf.sprintf "ways %d, %d-byte lines, %d sets: %s" ways line_bytes n_sets
      (QCheck.Print.(list (pair int int)) fetches)
  in
  QCheck.Test.make ~name:"accesses, misses and save stream match a list-per-set LRU" ~count:500
    (QCheck.make ~print gen)
    (fun ((ways, line_bytes, n_sets), fetches) ->
      let c = Icache.create ~size_bytes:(n_sets * ways * line_bytes) ~line_bytes ~ways () in
      let r = Reference.create ~n_sets ~line_bytes ~ways in
      List.for_all
        (fun (addr, bytes) ->
          Icache.access c ~addr ~bytes;
          Reference.access r ~addr ~bytes;
          Icache.accesses c = r.Reference.accesses && Icache.misses c = r.Reference.misses)
        fetches
      && saved c = Reference.save r)

(* The span path: a region placed at [base] (any alignment) fetches each
   node through the line span [Region.set_cache_base] computed, via
   [Icache.access_lines].  It must agree with [Icache.access] over the
   node's byte range and with the reference, fetch by fetch, and end with
   the same save stream. *)
let qcheck_span_path =
  let geometry =
    QCheck.Gen.(triple (oneofl [ 1; 2; 4 ]) (oneofl [ 16; 24; 48; 64 ]) (oneofl [ 1; 2; 4; 8 ]))
  in
  let gen =
    QCheck.Gen.(
      geometry >>= fun (ways, line_bytes, n_sets) ->
      int_bound (4 * ways * line_bytes * n_sets) >>= fun base ->
      list_size (int_range 1 6) (int_range 1 12) >>= fun sizes ->
      map
        (fun fetches -> ((ways, line_bytes, n_sets), base, sizes, fetches))
        (list_size (int_range 1 200) (int_bound (List.length sizes - 1))))
  in
  let print ((ways, line_bytes, n_sets), base, sizes, fetches) =
    Printf.sprintf "ways %d, %d-byte lines, %d sets, base %d, block sizes %s: nodes %s" ways
      line_bytes n_sets base
      (QCheck.Print.(list int) sizes)
      (QCheck.Print.(list int) fetches)
  in
  QCheck.Test.make ~name:"span path matches access and the reference" ~count:500
    (QCheck.make ~print gen)
    (fun ((ways, line_bytes, n_sets), base, sizes, fetches) ->
      let blocks, _ =
        List.fold_left
          (fun (acc, start) size -> (mk start size Terminator.Return :: acc, start + size))
          ([], 0) sizes
      in
      let blocks = List.rev blocks in
      let r =
        Region.of_spec ~id:0 ~selected_at:0 ~program:(grid_program ())
          {
            Region.entry = 0;
            nodes = blocks;
            edges = [];
            kind = Region.Combined;
            aux_entries = [];
            layout_hint = [];
          }
      in
      Region.set_cache_base r ~line_bytes base;
      let make () = Icache.create ~size_bytes:(n_sets * ways * line_bytes) ~line_bytes ~ways () in
      let by_span = make () and by_addr = make () in
      let reference = Reference.create ~n_sets ~line_bytes ~ways in
      List.for_all
        (fun node ->
          let lines = r.Region.node_lines in
          Icache.access_lines by_span ~first:lines.(2 * node) ~last:lines.((2 * node) + 1);
          let addr = base + r.Region.node_offsets.(node)
          and bytes = r.Region.node_blocks.(node).Block.size * Region.inst_bytes in
          Icache.access by_addr ~addr ~bytes;
          Reference.access reference ~addr ~bytes;
          Icache.accesses by_span = Icache.accesses by_addr
          && Icache.misses by_span = Icache.misses by_addr
          && Icache.accesses by_span = reference.Reference.accesses
          && Icache.misses by_span = reference.Reference.misses)
        fetches
      && saved by_span = saved by_addr
      && saved by_span = Reference.save reference)

(* The loader used to store tags, stamps and counters as it read them: a
   short stream left the cache half overwritten. *)
let load_is_atomic () =
  let c = Icache.create ~size_bytes:256 ~line_bytes:16 ~ways:2 () in
  Icache.access c ~addr:0 ~bytes:40;
  let other = Icache.create ~size_bytes:256 ~line_bytes:16 ~ways:2 () in
  Icache.access other ~addr:1_000 ~bytes:100;
  let stream = saved other in
  check_load_is_atomic ~what:"short icache stream" ~save:(Icache.save c) ~load:(Icache.load c)
    (List.filteri (fun i _ -> i < List.length stream - 1) stream)

(* The access count is the clock; a stream whose two counts differ was
   not written by [save], and is rejected after the whole stream parsed,
   with nothing committed. *)
let load_rejects_accesses_off_the_clock () =
  let c = Icache.create ~size_bytes:256 ~line_bytes:16 ~ways:2 () in
  Icache.access c ~addr:0 ~bytes:40;
  let other = Icache.create ~size_bytes:256 ~line_bytes:16 ~ways:2 () in
  Icache.access other ~addr:1_000 ~bytes:100;
  let stream = saved other in
  let n = List.length stream in
  (* The stream ends clock, accesses, misses. *)
  check_int "accesses saved as the clock" (List.nth stream (n - 3)) (List.nth stream (n - 2));
  check_load_is_atomic ~what:"accesses differ from the clock" ~save:(Icache.save c)
    ~load:(Icache.load c)
    (List.mapi (fun i v -> if i = n - 2 then v + 1 else v) stream)

let suite =
  [
    case "cold miss then hit" cold_miss_then_hit;
    case "multi-line fetch" multi_line_fetch;
    case "lru within set" lru_within_set;
    case "miss rate and reset" miss_rate_and_reset;
    case "bad geometry rejected" bad_geometry_rejected;
    case "layout assigned at install" layout_assigned_at_install;
    case "layout entry first" layout_entry_first;
    case "uninstalled region has no layout" uninstalled_region_has_no_layout;
    case "simulator drives icache" simulator_drives_icache;
    case "combination lowers misses" combination_lowers_misses_on_figure4;
    QCheck_alcotest.to_alcotest qcheck_reference;
    QCheck_alcotest.to_alcotest qcheck_span_path;
    case "load is atomic" load_is_atomic;
    case "load rejects accesses off the clock" load_rejects_accesses_off_the_clock;
  ]
