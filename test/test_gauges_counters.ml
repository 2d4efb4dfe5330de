(* High-water semantics of the shared gauges and the recyclable
   profiling-counter pool. *)

module Gauges = Regionsel_engine.Gauges
module Counters = Regionsel_engine.Counters
open Fixtures

let observed_bytes_high_water () =
  let g = Gauges.create () in
  Alcotest.(check int) "starts empty" 0 (Gauges.observed_bytes g);
  Gauges.add_observed_bytes g 100;
  Gauges.add_observed_bytes g 50;
  Alcotest.(check int) "accumulates" 150 (Gauges.observed_bytes g);
  Alcotest.(check int) "high water follows" 150 (Gauges.observed_bytes_high_water g);
  (* Releases shrink the current total but never the high-water mark. *)
  Gauges.add_observed_bytes g (-120);
  Alcotest.(check int) "negative add subtracts" 30 (Gauges.observed_bytes g);
  Alcotest.(check int) "high water retained" 150 (Gauges.observed_bytes_high_water g);
  Gauges.add_observed_bytes g 40;
  Alcotest.(check int) "regrows" 70 (Gauges.observed_bytes g);
  Alcotest.(check int) "high water still the peak" 150 (Gauges.observed_bytes_high_water g);
  Gauges.add_observed_bytes g 200;
  Alcotest.(check int) "new peak recorded" 270 (Gauges.observed_bytes_high_water g)

let set_gauges_interleaved () =
  let g = Gauges.create () in
  (* The two set-style gauges keep independent high-water marks. *)
  Gauges.set_blacklisted g 3;
  Gauges.set_links g 10;
  Gauges.set_blacklisted g 7;
  Gauges.set_links g 2;
  Gauges.set_blacklisted g 1;
  Alcotest.(check int) "blacklisted current" 1 (Gauges.blacklisted g);
  Alcotest.(check int) "blacklisted peak" 7 (Gauges.blacklisted_high_water g);
  Alcotest.(check int) "links current" 2 (Gauges.links g);
  Alcotest.(check int) "links peak" 10 (Gauges.links_high_water g);
  (* A set gauge dropping to zero keeps its peak too. *)
  Gauges.set_links g 0;
  Alcotest.(check int) "links drop to zero" 0 (Gauges.links g);
  Alcotest.(check int) "links peak survives zero" 10 (Gauges.links_high_water g);
  (* And the observed-bytes gauge is unaffected by either. *)
  Alcotest.(check int) "observed untouched" 0 (Gauges.observed_bytes_high_water g)

let counter_pool_recycles () =
  let c = Counters.create (grid_program ()) in
  let a1 = 100 and a2 = 200 and a3 = 300 in
  Alcotest.(check int) "first incr" 1 (Counters.incr c a1);
  Alcotest.(check int) "second incr" 2 (Counters.incr c a1);
  Alcotest.(check int) "peek live" 2 (Counters.peek c a1);
  Alcotest.(check int) "one live" 1 (Counters.live c);
  ignore (Counters.incr c a2);
  Alcotest.(check int) "two live" 2 (Counters.live c);
  Alcotest.(check int) "high water tracks live" 2 (Counters.high_water c);
  (* Release recycles: live falls, high water doesn't. *)
  Counters.release c a1;
  Alcotest.(check int) "released not live" 1 (Counters.live c);
  Alcotest.(check int) "released peek is 0" 0 (Counters.peek c a1);
  Alcotest.(check int) "high water retained" 2 (Counters.high_water c);
  (* Releasing an address with no live counter is a no-op. *)
  Counters.release c a3;
  Alcotest.(check int) "no-op release" 1 (Counters.live c);
  (* Re-allocation after release restarts the count and is a fresh
     allocation. *)
  Alcotest.(check int) "re-incr restarts" 1 (Counters.incr c a1);
  Alcotest.(check int) "allocations counted" 3 (Counters.total_allocations c);
  Alcotest.(check int) "live back to two" 2 (Counters.live c);
  Alcotest.(check int) "high water unchanged" 2 (Counters.high_water c)

let counter_pool_high_water_is_peak () =
  let c = Counters.create (grid_program ()) in
  let addr i = 1000 + i in
  for i = 1 to 5 do
    ignore (Counters.incr c (addr i))
  done;
  for i = 1 to 5 do
    Counters.release c (addr i)
  done;
  Alcotest.(check int) "all recycled" 0 (Counters.live c);
  Alcotest.(check int) "peak was 5" 5 (Counters.high_water c);
  (* Interleaved allocate/release never exceeding 2 live leaves the
     earlier peak in place. *)
  for i = 6 to 12 do
    ignore (Counters.incr c (addr i));
    ignore (Counters.incr c (addr (i + 100)));
    Counters.release c (addr i);
    Counters.release c (addr (i + 100))
  done;
  Alcotest.(check int) "peak still 5" 5 (Counters.high_water c);
  Alcotest.(check int) "allocations all counted" 19 (Counters.total_allocations c)

let live_entries_match () =
  let c = Counters.create (grid_program ()) in
  let a1 = 7 and a2 = 8 in
  ignore (Counters.incr c a1);
  ignore (Counters.incr c a1);
  ignore (Counters.incr c a2);
  let entries = List.sort compare (Counters.live_entries c) in
  Alcotest.(check int) "two entries" 2 (List.length entries);
  Alcotest.(check bool) "counts match" true
    (entries = List.sort compare [ a1, 2; a2, 1 ])

(* Both loaders used to commit field by field: a short stream left a
   gauge (or, for the pool, an emptied table) half restored. *)
let gauges_load_is_atomic () =
  let g = Gauges.create () in
  Gauges.add_observed_bytes g 70;
  Gauges.set_links g 3;
  let other = Gauges.create () in
  Gauges.add_observed_bytes other 500;
  Gauges.set_blacklisted other 9;
  let stream = saved_ints (Gauges.save other) in
  check_load_is_atomic ~what:"short gauges stream" ~save:(Gauges.save g) ~load:(Gauges.load g)
    (List.filteri (fun i _ -> i < List.length stream - 1) stream)

let counters_load_is_atomic () =
  let c = Counters.create (grid_program ()) in
  ignore (Counters.incr c 10 : int);
  ignore (Counters.incr c 20 : int);
  let other = Counters.create (grid_program ()) in
  ignore (Counters.incr other 30 : int);
  let stream = saved_ints (Counters.save other) in
  check_load_is_atomic ~what:"short counter-pool stream" ~save:(Counters.save c)
    ~load:(Counters.load c)
    (List.filteri (fun i _ -> i < List.length stream - 1) stream);
  check_load_is_atomic ~what:"negative table length" ~save:(Counters.save c)
    ~load:(Counters.load c) [ -1; 0; 0 ]

(* The dense pool against a hash-table model: random bumps, releases,
   peeks, crashes ([reset]) and save/load round trips over a program with
   16 blocks.  Live count, high water, allocations and the save stream
   must match the model's after every operation. *)
type op = Incr of int | Release of int | Peek of int | Reset | Reload

let qcheck_counters_match_model =
  let program =
    Regionsel_isa.Program.of_blocks_exn ~entry:0
      (List.init 16 (fun i ->
           Regionsel_isa.Block.make ~start:(i * 8) ~size:8 ~term:Regionsel_isa.Terminator.Halt))
  in
  let addr = QCheck.Gen.map (fun i -> i * 8) (QCheck.Gen.int_bound 15) in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 200)
        (frequency
           [
             (6, map (fun a -> Incr a) addr);
             (3, map (fun a -> Release a) addr);
             (2, map (fun a -> Peek a) addr);
             (1, return Reset);
             (1, return Reload);
           ]))
  in
  let print =
    QCheck.Print.list (function
      | Incr a -> Printf.sprintf "incr %d" a
      | Release a -> Printf.sprintf "release %d" a
      | Peek a -> Printf.sprintf "peek %d" a
      | Reset -> "reset"
      | Reload -> "reload")
  in
  QCheck.Test.make ~name:"dense counters match a hash-table model" ~count:300
    (QCheck.make ~print gen)
    (fun ops ->
      let model = Hashtbl.create 16 in
      let high_water = ref 0 and allocations = ref 0 in
      let model_stream () =
        let pairs = List.sort compare (Hashtbl.fold (fun a c acc -> (a, c) :: acc) model []) in
        (Hashtbl.length model :: List.concat_map (fun (a, c) -> [ a; c ]) pairs)
        @ [ !high_water; !allocations ]
      in
      let pool = ref (Counters.create program) in
      List.for_all
        (fun op ->
          let agrees =
            match op with
            | Incr a ->
              let c = 1 + Option.value (Hashtbl.find_opt model a) ~default:0 in
              if c = 1 then incr allocations;
              Hashtbl.replace model a c;
              high_water := max !high_water (Hashtbl.length model);
              Counters.incr !pool a = c
            | Release a ->
              Hashtbl.remove model a;
              Counters.release !pool a;
              true
            | Peek a ->
              Counters.peek !pool a = Option.value (Hashtbl.find_opt model a) ~default:0
            | Reset ->
              Hashtbl.reset model;
              Counters.reset !pool;
              true
            | Reload ->
              let fresh = Counters.create program in
              Counters.load fresh (reader_of_ints (saved_ints (Counters.save !pool)));
              pool := fresh;
              true
          in
          agrees
          && Counters.live !pool = Hashtbl.length model
          && Counters.high_water !pool = !high_water
          && Counters.total_allocations !pool = !allocations
          && saved_ints (Counters.save !pool) = model_stream ())
        ops)

let suite =
  [
    case "observed-bytes high water" observed_bytes_high_water;
    case "set gauges interleaved" set_gauges_interleaved;
    case "counter pool recycles" counter_pool_recycles;
    case "counter pool high water is peak" counter_pool_high_water_is_peak;
    case "live entries match" live_entries_match;
    case "gauges load is atomic" gauges_load_is_atomic;
    case "counters load is atomic" counters_load_is_atomic;
    QCheck_alcotest.to_alcotest qcheck_counters_match_model;
  ]
