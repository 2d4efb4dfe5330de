open Regionsel_isa
open Fixtures

(* Addr *)

let backward () =
  check_true "lower target is backward" (Addr.is_backward ~src:100 ~tgt:50);
  check_true "equal target is backward" (Addr.is_backward ~src:100 ~tgt:100);
  check_true "higher target is forward" (not (Addr.is_backward ~src:100 ~tgt:101))

let addr_pp () =
  Alcotest.(check string) "hex rendering" "0x1f" (Addr.to_string 31);
  Alcotest.(check string) "pp matches to_string" (Addr.to_string 4096)
    (Format.asprintf "%a" Addr.pp 4096)

let addr_containers () =
  let set = Addr.Set.of_list [ 3; 1; 2; 3 ] in
  check_int "set dedups" 3 (Addr.Set.cardinal set);
  let table = Addr.Table.create 4 in
  Addr.Table.replace table 7 "seven";
  Alcotest.(check (option string)) "table lookup" (Some "seven") (Addr.Table.find_opt table 7)

(* Terminator *)

let all_terminators =
  [
    Terminator.Fallthrough;
    Terminator.Jump 10;
    Terminator.Cond 10;
    Terminator.Call 10;
    Terminator.Indirect_jump;
    Terminator.Indirect_call;
    Terminator.Return;
    Terminator.Halt;
  ]

let terminator_equal () =
  List.iter (fun t -> check_true "reflexive" (Terminator.equal t t)) all_terminators;
  check_true "different targets differ" (not (Terminator.equal (Terminator.Jump 1) (Terminator.Jump 2)));
  check_true "different kinds differ"
    (not (Terminator.equal (Terminator.Jump 1) (Terminator.Cond 1)))

let terminator_static_target () =
  Alcotest.(check (option int)) "jump" (Some 10) (Terminator.static_target (Terminator.Jump 10));
  Alcotest.(check (option int)) "cond" (Some 10) (Terminator.static_target (Terminator.Cond 10));
  Alcotest.(check (option int)) "call" (Some 10) (Terminator.static_target (Terminator.Call 10));
  List.iter
    (fun t -> Alcotest.(check (option int)) "no static target" None (Terminator.static_target t))
    [ Terminator.Fallthrough; Terminator.Indirect_jump; Terminator.Return; Terminator.Halt ]

let terminator_predicates () =
  check_true "fallthrough is not a branch" (not (Terminator.is_branch Terminator.Fallthrough));
  check_true "halt is not a branch" (not (Terminator.is_branch Terminator.Halt));
  List.iter
    (fun t -> check_true "branch kinds" (Terminator.is_branch t))
    [
      Terminator.Jump 1; Terminator.Cond 1; Terminator.Call 1; Terminator.Indirect_jump;
      Terminator.Indirect_call; Terminator.Return;
    ];
  List.iter
    (fun t -> check_true "indirect kinds" (Terminator.is_indirect t))
    [ Terminator.Indirect_jump; Terminator.Indirect_call; Terminator.Return ];
  check_true "cond can fall through" (Terminator.can_fall_through (Terminator.Cond 1));
  check_true "jump cannot fall through" (not (Terminator.can_fall_through (Terminator.Jump 1)))

(* Block *)

let block_geometry () =
  let b = Block.make ~start:100 ~size:5 ~term:(Terminator.Cond 50) in
  check_int "last is start + size - 1" 104 (Block.last b);
  check_int "fall address is one past" 105 (Block.fall_addr b)

let block_size_validation () =
  Alcotest.check_raises "size 0 rejected" (Invalid_argument "Block.make: size must be >= 1")
    (fun () -> ignore (Block.make ~start:0 ~size:0 ~term:Terminator.Halt))

let block_equal () =
  let b = Block.make ~start:1 ~size:2 ~term:Terminator.Return in
  check_true "equal to itself" (Block.equal b b);
  check_true "size matters"
    (not (Block.equal b (Block.make ~start:1 ~size:3 ~term:Terminator.Return)))

(* Program *)

let mk start size term = Block.make ~start ~size ~term

let valid_program () =
  let blocks =
    [
      mk 0 2 Terminator.Fallthrough;
      mk 2 3 (Terminator.Cond 0);
      mk 5 1 Terminator.Halt;
    ]
  in
  let p = Program.of_blocks_exn ~entry:0 blocks in
  check_int "three blocks" 3 (Program.n_blocks p);
  check_int "six instructions" 6 (Program.n_insts p);
  check_true "block at start found" (Program.is_block_start p 2);
  check_true "mid-block address is not a start" (not (Program.is_block_start p 3));
  check_int "entry preserved" 0 (Program.entry p)

let expect_error blocks ~entry fragment =
  match Program.of_blocks ~entry blocks with
  | Ok _ -> Alcotest.failf "expected validation error mentioning %S" fragment
  | Error msg ->
    check_true (Printf.sprintf "error %S mentions %S" msg fragment)
      (contains ~sub:fragment msg)

let overlap_rejected () =
  expect_error ~entry:0 [ mk 0 4 Terminator.Halt; mk 2 2 Terminator.Halt ] "overlap"

let bad_target_rejected () =
  expect_error ~entry:0 [ mk 0 2 (Terminator.Jump 99); mk 2 1 Terminator.Halt ] "not a block start"

let bad_fallthrough_rejected () =
  expect_error ~entry:0 [ mk 0 2 Terminator.Fallthrough ] "falls through"

let bad_entry_rejected () =
  expect_error ~entry:1 [ mk 0 2 Terminator.Halt ] "entry"

let empty_rejected () = expect_error ~entry:0 [] "no blocks"

let call_needs_return_point () =
  (* A call block at the end of the program has no valid return point. *)
  expect_error ~entry:0 [ mk 0 1 Terminator.Halt; mk 1 2 (Terminator.Call 0) ] "falls through"

let duplicate_start_rejected () =
  expect_error ~entry:0 [ mk 0 1 Terminator.Halt; mk 0 1 Terminator.Halt ] "share a start address"

let gaps_allowed () =
  let p =
    Program.of_blocks_exn ~entry:0 [ mk 0 1 (Terminator.Jump 10); mk 10 1 Terminator.Halt ]
  in
  check_int "gap between blocks is fine" 2 (Program.n_blocks p)

let qcheck_straight_line =
  (* Any chain of fall-through blocks capped with Halt validates, and its
     instruction count is the sum of sizes. *)
  QCheck.Test.make ~name:"straight-line programs validate" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 20) (int_range 1 8))
    (fun sizes ->
      let blocks = ref [] in
      let cursor = ref 0 in
      List.iter
        (fun size ->
          blocks := mk !cursor size Terminator.Fallthrough :: !blocks;
          cursor := !cursor + size)
        sizes;
      let blocks = List.rev (mk !cursor 1 Terminator.Halt :: !blocks) in
      match Program.of_blocks ~entry:0 blocks with
      | Ok p -> Program.n_insts p = List.fold_left ( + ) 1 sizes
      | Error _ -> false)

let suite =
  [
    case "addr backward" backward;
    case "addr pp" addr_pp;
    case "addr containers" addr_containers;
    case "terminator equal" terminator_equal;
    case "terminator static target" terminator_static_target;
    case "terminator predicates" terminator_predicates;
    case "block geometry" block_geometry;
    case "block size validation" block_size_validation;
    case "block equal" block_equal;
    case "valid program" valid_program;
    case "overlap rejected" overlap_rejected;
    case "bad target rejected" bad_target_rejected;
    case "bad fallthrough rejected" bad_fallthrough_rejected;
    case "bad entry rejected" bad_entry_rejected;
    case "empty rejected" empty_rejected;
    case "call needs return point" call_needs_return_point;
    case "duplicate start rejected" duplicate_start_rejected;
    case "gaps allowed" gaps_allowed;
    QCheck_alcotest.to_alcotest qcheck_straight_line;
  ]
