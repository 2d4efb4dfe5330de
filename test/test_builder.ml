open Regionsel_isa
module Builder = Regionsel_workload.Builder
module Behavior = Regionsel_workload.Behavior
module Image = Regionsel_workload.Image
open Fixtures

let two_function_image () =
  let b = Builder.create ~base:0x100 () in
  Builder.func b "callee";
  Builder.block b ~size:3 Builder.Return;
  Builder.func b "main";
  Builder.block b ~size:2 Builder.Fallthrough;
  Builder.block b ~label:"loop" ~size:4 (Builder.Call "callee");
  Builder.block b ~size:2 (Builder.Cond ("loop", Behavior.Loop 5));
  Builder.block b ~size:1 Builder.Halt;
  Builder.compile b ~name:"two" ~entry:"main"

let layout_follows_declaration () =
  let image = two_function_image () in
  let p = image.Image.program in
  check_int "base honoured" 0x100 (Block.make ~start:0x100 ~size:1 ~term:Terminator.Halt).Block.start;
  check_true "callee at base" (Program.is_block_start p 0x100);
  check_int "entry is main" 0x103 (Program.entry p);
  check_int "five blocks" 5 (Program.n_blocks p);
  check_int "twelve instructions" 12 (Program.n_insts p)

let call_is_backward () =
  let image = two_function_image () in
  let p = image.Image.program in
  let call_block = Program.block_at_exn p 0x105 in
  (match call_block.Block.term with
  | Terminator.Call tgt ->
    check_true "call targets lower address" (Addr.is_backward ~src:(Block.last call_block) ~tgt)
  | _ -> Alcotest.fail "expected a call terminator");
  ()

let cond_spec_registered () =
  let image = two_function_image () in
  let p = image.Image.program in
  (* The Cond block is the third main block, at 0x109, terminator at 0x10a. *)
  let cond_block = Program.block_at_exn p 0x109 in
  (match cond_block.Block.term with
  | Terminator.Cond _ -> ()
  | _ -> Alcotest.fail "expected a cond terminator");
  match Image.cond_spec image (Block.last cond_block) with
  | Behavior.Loop 5 -> ()
  | _ -> Alcotest.fail "cond spec should be Loop 5"

let duplicate_label_rejected () =
  let b = Builder.create () in
  Builder.func b "f";
  Builder.block b ~size:1 Builder.Return;
  Builder.func b "g";
  check_true "duplicate rejected"
    (try
       Builder.block b ~label:"f" ~size:1 Builder.Return;
       false
     with Invalid_argument _ -> true)

let block_without_function_rejected () =
  let b = Builder.create () in
  check_true "no function open"
    (try
       Builder.block b ~size:1 Builder.Halt;
       false
     with Invalid_argument _ -> true)

let first_block_label_must_match () =
  let b = Builder.create () in
  Builder.func b "f";
  check_true "mismatched first label rejected"
    (try
       Builder.block b ~label:"not_f" ~size:1 Builder.Return;
       false
     with Invalid_argument _ -> true)

let unresolved_label_rejected () =
  let b = Builder.create () in
  Builder.func b "f";
  Builder.block b ~size:1 (Builder.Jump "nowhere");
  check_true "unresolved label"
    (try
       ignore (Builder.compile b ~name:"bad");
       false
     with Invalid_argument _ -> true)

let empty_program_rejected () =
  let b = Builder.create () in
  check_true "empty program"
    (try
       ignore (Builder.compile b ~name:"empty");
       false
     with Invalid_argument _ -> true)

let indirect_specs_resolved () =
  let b = Builder.create () in
  Builder.func b "t1";
  Builder.block b ~size:1 Builder.Return;
  Builder.func b "t2";
  Builder.block b ~size:1 Builder.Return;
  Builder.func b "main";
  Builder.block b ~label:"main" ~size:2
    (Builder.Indirect_call (Builder.Round_robin [ "t1"; "t2" ]));
  Builder.block b ~size:1 Builder.Halt;
  let image = Builder.compile b ~name:"ind" ~entry:"main" in
  let p = image.Image.program in
  let entry = Program.entry p in
  let blk = Program.block_at_exn p entry in
  match Image.indirect_spec image (Block.last blk) with
  | Behavior.Round_robin targets ->
    check_int "two targets" 2 (Array.length targets);
    check_true "targets are block starts"
      (Array.for_all (Program.is_block_start p) targets)
  | Behavior.Weighted_targets _ -> Alcotest.fail "expected round robin"

let entry_defaults_to_first_function () =
  let b = Builder.create () in
  Builder.func b "first";
  Builder.block b ~size:1 Builder.Halt;
  let image = Builder.compile b ~name:"one" in
  check_int "entry at base" 0x1000 (Program.entry image.Image.program)

let all_patterns_compile () =
  (* The pattern library composes into a valid program. *)
  let module Patterns = Regionsel_workload.Patterns in
  let b = Builder.create () in
  Patterns.leaf b ~name:"leaf" ~size:4;
  Patterns.plain_loop b ~name:"plain" ~trip:5 ~body_blocks:2 ~body_size:3;
  Patterns.loop_with_calls b ~name:"withcalls" ~trip:5 ~callees:[ "leaf" ];
  Patterns.nested_loop b ~name:"nested" ~outer_trip:3 ~inner_trip:4 ~body_size:3;
  Patterns.diamond_loop b ~name:"diamond" ~trip:5
    ~diamonds:[ { Patterns.bias = 0.5; side_size = 3 } ];
  Patterns.dispatch_loop b ~name:"dispatch" ~trip:5 ~cases:[ 3, 1.0; 4, 2.0 ];
  Patterns.long_cycle_loop b ~name:"chain" ~trip:2 ~segments:2 ~hops_per_segment:3;
  Patterns.composite_loop b ~name:"composite" ~trip:5
    ~body:
      [
        Patterns.Straight 3;
        Patterns.Diamond { Patterns.bias = 0.8; side_size = 3 };
        Patterns.Call_to "leaf";
        Patterns.Continue 0.2;
      ];
  Patterns.spaced_loop b ~name:"spaced" ~body_size:3;
  Patterns.cold_farm b ~name:"farm" ~n:3 ~body_size:3;
  let callers = Patterns.call_farm b ~name:"farm2" ~callees:[ "leaf" ] ~n_callers:2 ~trip:3 in
  Patterns.driver b ~name:"main" ~weights:[ "spaced", 0.5 ]
    ([ "plain"; "withcalls"; "nested"; "diamond"; "dispatch"; "chain"; "composite";
       "spaced"; "farm" ] @ callers);
  let image = Builder.compile b ~name:"patterns" ~entry:"main" in
  check_true "many blocks" (Program.n_blocks image.Image.program > 40)

let suite =
  [
    case "layout follows declaration" layout_follows_declaration;
    case "call is backward" call_is_backward;
    case "cond spec registered" cond_spec_registered;
    case "duplicate label rejected" duplicate_label_rejected;
    case "block without function rejected" block_without_function_rejected;
    case "first block label must match" first_block_label_must_match;
    case "unresolved label rejected" unresolved_label_rejected;
    case "empty program rejected" empty_program_rejected;
    case "indirect specs resolved" indirect_specs_resolved;
    case "entry defaults to first function" entry_defaults_to_first_function;
    case "all patterns compile" all_patterns_compile;
  ]
