(* Unit tests for the two trace-formation engines: the NET recorder
   (next-executing tail) and LEI's FORM-TRACE reconstruction. *)

open Regionsel_isa
module Net_former = Regionsel_core.Net_former
module Lei_former = Regionsel_core.Lei_former
module History_buffer = Regionsel_core.History_buffer
module Region = Regionsel_engine.Region
module Context = Regionsel_engine.Context
module Code_cache = Regionsel_engine.Code_cache
module Params = Regionsel_engine.Params
module Image = Regionsel_workload.Image
open Fixtures

let ctx_of ?params (image : Image.t) = Context.create ?params image.Image.program

let lei_former (image : Image.t) = Lei_former.create image.Image.program
let block_at (image : Image.t) a = Program.block_at_exn image.Image.program a
let starts path = List.map (fun b -> b.Block.start) path.Region.blocks

(* NET former *)

let feed ctx former image ~at ~taken ~next =
  Net_former.feed former ~ctx ~block:(block_at image at) ~taken ~next

let net_stops_at_backward_branch () =
  let image = figure2 () in
  let ctx = ctx_of image in
  (* Record from the loop head A (0x1008): A, B (0x100b), latch (0x100f)
     which branches backward to A. *)
  let f = Net_former.start image.Image.program ~entry:0x1008 in
  (match feed ctx f image ~at:0x1008 ~taken:false ~next:0x100b with
  | Net_former.Continue -> ()
  | Net_former.Done _ -> Alcotest.fail "should not stop on fall-through");
  (match feed ctx f image ~at:0x100b ~taken:true ~next:0x1000 with
  | Net_former.Continue -> Alcotest.fail "backward call must stop the trace"
  | Net_former.Done path ->
    Alcotest.(check (list int)) "two blocks recorded" [ 0x1008; 0x100b ] (starts path);
    Alcotest.(check (option int)) "final transfer kept" (Some 0x1000) path.Region.final_next)

let net_stops_at_cached_entry () =
  let image = figure2 () in
  let ctx = ctx_of image in
  let cached =
    Region.spec_of_path ~kind:Region.Trace
      { Region.blocks = [ block_at image 0x1012 ]; final_next = None }
  in
  ignore (Code_cache.install ctx.Context.cache cached);
  let f = Net_former.start image.Image.program ~entry:0x1008 in
  (match feed ctx f image ~at:0x1008 ~taken:true ~next:0x1012 with
  | Net_former.Continue -> Alcotest.fail "taken branch to a cached entry must stop"
  | Net_former.Done path ->
    Alcotest.(check (option int)) "stops into the cached region" (Some 0x1012)
      path.Region.final_next)

let net_stops_at_own_entry () =
  let image = simple_loop () in
  let ctx = ctx_of image in
  let f = Net_former.start image.Image.program ~entry:0x1002 in
  match feed ctx f image ~at:0x1002 ~taken:true ~next:0x1002 with
  | Net_former.Done path ->
    check_true "cycle closed" (path.Region.final_next = Some 0x1002)
  | Net_former.Continue -> Alcotest.fail "branch to own entry must close the trace"

let net_size_limit () =
  let image = figure2 () in
  let params = { Params.default with Params.max_trace_blocks = 2 } in
  let ctx = ctx_of ~params image in
  let f = Net_former.start image.Image.program ~entry:0x1006 in
  (match feed ctx f image ~at:0x1006 ~taken:false ~next:0x1008 with
  | Net_former.Continue -> ()
  | Net_former.Done _ -> Alcotest.fail "one block is under the limit");
  match feed ctx f image ~at:0x1008 ~taken:false ~next:0x100b with
  | Net_former.Done path -> check_int "limit enforced" 2 (List.length path.Region.blocks)
  | Net_former.Continue -> Alcotest.fail "block limit must stop the trace"

let net_halt_ends_trace () =
  let image = simple_loop () in
  let ctx = ctx_of image in
  let f = Net_former.start image.Image.program ~entry:0x1002 in
  match feed ctx f image ~at:0x1002 ~taken:false ~next:Addr.none with
  | Net_former.Done path -> check_true "no final transfer" (path.Region.final_next = None)
  | Net_former.Continue -> Alcotest.fail "halt must end the trace"

let net_wrong_first_block_rejected () =
  let image = simple_loop () in
  let ctx = ctx_of image in
  let f = Net_former.start image.Image.program ~entry:0x1002 in
  check_true "first block must match the entry"
    (try
       ignore (feed ctx f image ~at:0x1000 ~taken:false ~next:0x1002);
       false
     with Invalid_argument _ -> true)

(* LEI former *)

let lei_reconstructs_interprocedural_cycle () =
  let image = figure2 () in
  let ctx = ctx_of image in
  let buf = History_buffer.create image.Image.program ~capacity:64 in
  (* One full iteration of the cycle starting at A (0x1008).  The taken
     branches of an iteration are: the call (0x100e -> callee 0x1000), the
     return (0x1005 -> continuation 0x100f) and the back edge
     (0x1010 -> 0x1008), which closes the cycle. *)
  let old = History_buffer.insert buf ~src:0x1010 ~tgt:0x1008 ~follows_exit:false in
  ignore (History_buffer.insert buf ~src:0x100e ~tgt:0x1000 ~follows_exit:false);
  ignore (History_buffer.insert buf ~src:0x1005 ~tgt:0x100f ~follows_exit:false);
  ignore (History_buffer.insert buf ~src:0x1010 ~tgt:0x1008 ~follows_exit:false);
  match Lei_former.form (lei_former image) ~ctx ~buf ~start:0x1008 ~after_seq:old with
  | Some path ->
    Alcotest.(check (list int)) "full interprocedural cycle reconstructed"
      [ 0x1008; 0x100b; 0x1000; 0x1004; 0x100f ]
      (starts path);
    Alcotest.(check (option int)) "closed back to the entry" (Some 0x1008)
      path.Region.final_next
  | None -> Alcotest.fail "expected a trace"

let lei_stops_at_cached_entry () =
  let image = figure2 () in
  let ctx = ctx_of image in
  let cached =
    Region.spec_of_path ~kind:Region.Trace
      { Region.blocks = [ block_at image 0x1000 ]; final_next = None }
  in
  ignore (Code_cache.install ctx.Context.cache cached);
  let buf = History_buffer.create image.Image.program ~capacity:64 in
  let old = History_buffer.insert buf ~src:0x1010 ~tgt:0x1008 ~follows_exit:false in
  ignore (History_buffer.insert buf ~src:0x100e ~tgt:0x1000 ~follows_exit:false);
  ignore (History_buffer.insert buf ~src:0x1010 ~tgt:0x1008 ~follows_exit:false);
  match Lei_former.form (lei_former image) ~ctx ~buf ~start:0x1008 ~after_seq:old with
  | Some path ->
    Alcotest.(check (list int)) "stops before the cached callee" [ 0x1008; 0x100b ]
      (starts path);
    Alcotest.(check (option int)) "exits into the cached region" (Some 0x1000)
      path.Region.final_next
  | None -> Alcotest.fail "expected a trace"

let lei_gap_tail_walk () =
  let image = figure2 () in
  let ctx = ctx_of image in
  let buf = History_buffer.create image.Image.program ~capacity:64 in
  (* Two consecutive cache exits landing at A: the slice contains only the
     flagged closing entry, so formation falls back to the fall-through
     tail from A, stopping at the call (an unconditional transfer). *)
  let old = History_buffer.insert buf ~src:0x1020 ~tgt:0x1008 ~follows_exit:true in
  ignore (History_buffer.insert buf ~src:0x1020 ~tgt:0x1008 ~follows_exit:true);
  match Lei_former.form (lei_former image) ~ctx ~buf ~start:0x1008 ~after_seq:old with
  | Some path ->
    Alcotest.(check (list int)) "tail walk across fall-throughs" [ 0x1008; 0x100b ]
      (starts path);
    Alcotest.(check (option int)) "ends at the call target" (Some 0x1000)
      path.Region.final_next
  | None -> Alcotest.fail "expected a tail trace"

let lei_start_cached_yields_nothing () =
  let image = figure2 () in
  let ctx = ctx_of image in
  let cached =
    Region.spec_of_path ~kind:Region.Trace
      { Region.blocks = [ block_at image 0x1008 ]; final_next = None }
  in
  ignore (Code_cache.install ctx.Context.cache cached);
  let buf = History_buffer.create image.Image.program ~capacity:64 in
  let old = History_buffer.insert buf ~src:0x1010 ~tgt:0x1008 ~follows_exit:false in
  ignore (History_buffer.insert buf ~src:0x1010 ~tgt:0x1008 ~follows_exit:false);
  check_true "no trace when the start is already cached"
    (Lei_former.form (lei_former image) ~ctx ~buf ~start:0x1008 ~after_seq:old = None)

let lei_respects_size_cap () =
  let image = figure2 () in
  let params = { Params.default with Params.max_trace_insts = 5 } in
  let ctx = ctx_of ~params image in
  let buf = History_buffer.create image.Image.program ~capacity:64 in
  let old = History_buffer.insert buf ~src:0x1010 ~tgt:0x1008 ~follows_exit:false in
  ignore (History_buffer.insert buf ~src:0x100e ~tgt:0x1000 ~follows_exit:false);
  ignore (History_buffer.insert buf ~src:0x1010 ~tgt:0x1008 ~follows_exit:false);
  match Lei_former.form (lei_former image) ~ctx ~buf ~start:0x1008 ~after_seq:old with
  | Some path -> check_true "capped" (Region.path_insts path <= 8)
  | None -> Alcotest.fail "expected a trace"

let suite =
  [
    case "net: stops at backward branch" net_stops_at_backward_branch;
    case "net: stops at cached entry" net_stops_at_cached_entry;
    case "net: stops at own entry" net_stops_at_own_entry;
    case "net: size limit" net_size_limit;
    case "net: halt ends trace" net_halt_ends_trace;
    case "net: wrong first block rejected" net_wrong_first_block_rejected;
    case "lei: reconstructs interprocedural cycle" lei_reconstructs_interprocedural_cycle;
    case "lei: stops at cached entry" lei_stops_at_cached_entry;
    case "lei: gap tail walk" lei_gap_tail_walk;
    case "lei: start cached yields nothing" lei_start_cached_yields_nothing;
    case "lei: respects size cap" lei_respects_size_cap;
  ]
