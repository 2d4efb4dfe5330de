open Regionsel_isa
module Observation_store = Regionsel_core.Observation_store
module Compact_trace = Regionsel_core.Compact_trace
module Gauges = Regionsel_engine.Gauges
module Region = Regionsel_engine.Region
open Fixtures

let mk start size term = Block.make ~start ~size ~term

let trace_from start =
  let b0 = mk start 3 Terminator.Fallthrough in
  let b1 = mk (start + 3) 2 Terminator.Halt in
  Compact_trace.encode { Region.blocks = [ b0; b1 ]; final_next = None }

let record_and_take () =
  let gauges = Gauges.create () in
  let store = Observation_store.create (grid_program ()) gauges in
  let t1 = trace_from 0 and t2 = trace_from 0 and other = trace_from 100 in
  Observation_store.record store t1;
  Observation_store.record store t2;
  Observation_store.record store other;
  check_int "two for entry 0" 2 (Observation_store.count store 0);
  check_int "one for entry 100" 1 (Observation_store.count store 100);
  check_int "two entries total" 2 (Observation_store.n_entries store);
  let taken = Observation_store.take store 0 in
  check_int "both returned" 2 (List.length taken);
  check_int "returned in observation order" (Compact_trace.entry t1)
    (Compact_trace.entry (List.hd taken));
  check_int "entry cleared" 0 (Observation_store.count store 0);
  check_int "other entry untouched" 1 (Observation_store.count store 100)

let gauge_accounting () =
  let gauges = Gauges.create () in
  let store = Observation_store.create (grid_program ()) gauges in
  let t1 = trace_from 0 and t2 = trace_from 100 in
  Observation_store.record store t1;
  Observation_store.record store t2;
  let expected = Compact_trace.size_bytes t1 + Compact_trace.size_bytes t2 in
  check_int "gauge tracks stored bytes" expected (Gauges.observed_bytes gauges);
  check_int "store agrees" expected (Observation_store.total_bytes store);
  ignore (Observation_store.take store 0);
  check_int "bytes returned on take" (Compact_trace.size_bytes t2) (Gauges.observed_bytes gauges);
  check_int "high water remembers the peak" expected (Gauges.observed_bytes_high_water gauges)

let take_missing () =
  let store = Observation_store.create (grid_program ()) (Gauges.create ()) in
  check_true "taking an unknown entry yields nothing" (Observation_store.take store 7 = [])

(* Entries recorded in descending address order save in ascending order,
   and the stream loads back to the same save. *)
let save_in_address_order () =
  let store = Observation_store.create (grid_program ()) (Gauges.create ()) in
  List.iter (fun a -> Observation_store.record store (trace_from a)) [ 200; 100; 100; 0 ];
  let dump s =
    let acc = ref [] in
    Observation_store.save s (fun v -> acc := v :: !acc);
    List.rev !acc
  in
  let saved = dump store in
  let rest = ref saved in
  let read () =
    match !rest with
    | v :: tl ->
      rest := tl;
      v
    | [] -> Alcotest.fail "stream too short"
  in
  ignore (read () : int);
  let n = read () in
  let entries =
    List.init n (fun _ ->
        let entry = read () in
        let len = read () in
        for _ = 1 to len do
          ignore (Compact_trace.load read)
        done;
        entry)
  in
  Alcotest.(check (list int)) "entries ascending" [ 0; 100; 200 ] entries;
  let copy = Observation_store.create (grid_program ()) (Gauges.create ()) in
  rest := saved;
  Observation_store.load copy read;
  Alcotest.(check (list int)) "load then save is the identity" saved (dump copy);
  check_int "two traces for entry 100" 2 (Observation_store.count copy 100)

let suite =
  [
    case "record and take" record_and_take;
    case "gauge accounting" gauge_accounting;
    case "take missing" take_missing;
    case "save in address order" save_in_address_order;
  ]
