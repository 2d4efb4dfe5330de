open Regionsel_isa
module Builder = Regionsel_workload.Builder
module Behavior = Regionsel_workload.Behavior
module Interp = Regionsel_engine.Interp
module Spec = Regionsel_workload.Spec
module Suite = Regionsel_workload.Suite
open Fixtures

(* [Interp.step] is gone (it allocated a record per executed block); tests
   that want to retain steps snapshot the reused record themselves. *)
type obs = { block : Block.t; taken : bool; next : Addr.t }

let halted interp =
  let s = Interp.make_step () in
  not (Interp.step_into interp s)

let steps_until_halt ?(cap = 1_000_000) interp =
  let s = Interp.make_step () in
  let rec go acc n =
    if n >= cap || not (Interp.step_into interp s) then List.rev acc
    else
      go
        ({ block = Interp.block interp s; taken = s.Interp.taken; next = s.Interp.next } :: acc)
        (n + 1)
  in
  go [] 0

let straight_line () =
  let b = Builder.create () in
  Builder.func b "main";
  Builder.block b ~size:3 Builder.Fallthrough;
  Builder.block b ~size:2 Builder.Fallthrough;
  Builder.block b ~size:1 Builder.Halt;
  let image = Builder.compile b ~name:"straight" in
  let interp = Interp.create image ~seed:1L in
  let steps = steps_until_halt interp in
  check_int "three blocks executed" 3 (List.length steps);
  check_true "no taken branches" (List.for_all (fun s -> not s.taken) steps);
  check_true "halted" (halted interp)

let loop_trip_count () =
  let image = simple_loop ~trip:7 () in
  let interp = Interp.create image ~seed:1L in
  let steps = steps_until_halt interp in
  (* pre + 7 head executions + halt block. *)
  check_int "blocks executed" 9 (List.length steps)

let call_return_balance () =
  let image = figure2 ~iters:50 () in
  let interp = Interp.create image ~seed:1L in
  let calls = ref 0 and returns = ref 0 in
  List.iter
    (fun s ->
      match s.block.Block.term with
      | Terminator.Call _ | Terminator.Indirect_call -> incr calls
      | Terminator.Return -> incr returns
      | _ -> ())
    (steps_until_halt interp);
  check_int "calls equal returns" !calls !returns;
  check_true "at least one call per iteration" (!calls >= 50);
  check_int "stack empty at halt" 0 (Interp.stack_depth interp)

let determinism () =
  let run seed =
    let interp = Interp.create (figure4 ~iters:200 ()) ~seed in
    List.map (fun s -> s.block.Block.start) (steps_until_halt interp)
  in
  Alcotest.(check (list int)) "same seed same path" (run 3L) (run 3L);
  check_true "different seeds usually differ" (run 3L <> run 4L)

(* Step [a] with [step_a] and [b] with [step_b] in lockstep for up to [n]
   steps, failing at the first step where the two differ; [on_step] sees
   each step of [a]. *)
let lockstep ~what ?(on_step = ignore) ~n step_a a step_b b =
  let sa = Interp.make_step () and sb = Interp.make_step () in
  let rec go i =
    if i < n then begin
      let ok_a = step_a a sa and ok_b = step_b b sb in
      if ok_a <> ok_b then Alcotest.failf "%s: one stepper halted at step %d" what i;
      if ok_a then begin
        if
          sa.Interp.block_id <> sb.Interp.block_id
          || sa.Interp.taken <> sb.Interp.taken
          || sa.Interp.next <> sb.Interp.next
        then Alcotest.failf "%s: steppers differ at step %d" what i;
        on_step sa;
        go (i + 1)
      end
    end
  in
  go 0

let bench_image name = Spec.image (Option.get (Suite.find name))

(* The threaded, quickened ops and the reference terminator [match]
   produce the same step stream, bit for bit — same blocks, same taken
   flags, same targets, and hence the same per-site PRNG draws: to the
   halt on the fixtures, and over 200k steps on every bench. *)
let step_into_matches_step_reference () =
  List.iter
    (fun (name, image, n) ->
      lockstep ~what:name ~n Interp.step_reference (Interp.create image ~seed:7L)
        Interp.step_into (Interp.create image ~seed:7L))
    ([
       "figure2", figure2 ~iters:100 (), max_int;
       "figure3", figure3 (), max_int;
       "figure4", figure4 ~iters:300 (), max_int;
       "simple_loop", simple_loop ~trip:9 (), max_int;
     ]
    @ List.map (fun name -> (name, bench_image name, 200_000)) Suite.names)

(* A restored interpreter starts with unquickened ops and quickens them
   at first execution, binding the states [load_warm] restored.  Saved at
   a step where some [Cond] blocks have not run yet, it must go on to
   produce the reference stepper's events, including at those blocks. *)
let restored_threaded_matches_reference () =
  List.iter
    (fun name ->
      let image = bench_image name in
      let program = image.Regionsel_workload.Image.program in
      let ran = Array.make (Program.n_blocks program) false in
      let mark (s : Interp.step) = ran.(s.Interp.block_id) <- true in
      let unrun_conds () =
        let n = ref 0 in
        Array.iteri
          (fun id r ->
            match (Program.block_of_id program id).Block.term with
            | Terminator.Cond _ when not r -> incr n
            | _ -> ())
          ran;
        !n
      in
      let reference = Interp.create image ~seed:7L in
      lockstep ~what:(name ^ " before the save") ~on_step:mark ~n:3_000 Interp.step_reference
        reference Interp.step_into (Interp.create image ~seed:7L);
      let unrun = unrun_conds () in
      check_true (name ^ ": some Cond blocks have not run at the save") (unrun > 0);
      let restored = Interp.create image ~seed:7L in
      Interp.load_warm restored (reader_of_ints (saved_ints (Interp.save_warm reference)));
      lockstep ~what:(name ^ " after the restore") ~on_step:mark ~n:100_000 Interp.step_reference
        reference Interp.step_into restored;
      check_true (name ^ ": Cond blocks first run after the restore") (unrun_conds () < unrun))
    Suite.names

let return_with_empty_stack_halts () =
  let b = Builder.create () in
  Builder.func b "main";
  Builder.block b ~size:2 Builder.Return;
  let image = Builder.compile b ~name:"ret" in
  let interp = Interp.create image ~seed:1L in
  (match steps_until_halt interp with
  | [ s ] ->
    check_true "return taken" s.taken;
    check_true "no next" (Addr.is_none s.next)
  | steps -> Alcotest.failf "expected one step, got %d" (List.length steps));
  check_true "halted after" (halted interp)

let runaway_recursion_detected () =
  let b = Builder.create () in
  Builder.func b "main";
  Builder.block b ~size:2 (Builder.Call "main");
  Builder.block b ~size:1 Builder.Halt;
  let image = Builder.compile b ~name:"recurse" in
  let interp = Interp.create image ~seed:1L in
  check_true "runaway stack raises"
    (try
       ignore (steps_until_halt interp);
       false
     with Interp.Runaway_stack _ -> true)

let indirect_targets_followed () =
  let b = Builder.create () in
  Builder.func b "t1";
  Builder.block b ~size:1 (Builder.Jump "main");
  Builder.func b "t2";
  Builder.block b ~size:1 (Builder.Jump "main");
  Builder.func b "main";
  Builder.block b ~size:2 (Builder.Indirect_jump (Builder.Round_robin [ "t1"; "t2" ]));
  let image = Builder.compile b ~name:"ind" ~entry:"main" in
  let interp = Interp.create image ~seed:1L in
  let s = Interp.make_step () in
  let targets = ref [] in
  for _ = 1 to 8 do
    if not (Interp.step_into interp s) then Alcotest.fail "program should not halt";
    if Terminator.is_indirect (Interp.block interp s).Block.term then
      targets := s.Interp.next :: !targets
  done;
  ignore image;
  let t1 = 0x1000 (* the first declared function sits at the base address *) in
  check_true "alternates over both targets"
    (List.exists (fun a -> a = t1) !targets && List.exists (fun a -> a <> t1) !targets)

let taken_flags_match_terminators () =
  let interp = Interp.create (figure2 ~iters:100 ()) ~seed:5L in
  List.iter
    (fun s ->
      match s.block.Block.term with
      | Terminator.Jump _ | Terminator.Call _ | Terminator.Return | Terminator.Indirect_jump
      | Terminator.Indirect_call -> check_true "unconditional transfers are taken" s.taken
      | Terminator.Fallthrough | Terminator.Halt ->
        check_true "fallthrough never taken" (not s.taken)
      | Terminator.Cond _ -> ())
    (steps_until_halt interp)

let next_is_block_start () =
  let image = figure4 ~iters:300 () in
  let p = image.Regionsel_workload.Image.program in
  let interp = Interp.create image ~seed:9L in
  List.iter
    (fun s ->
      if not (Addr.is_none s.next) then
        check_true "next is a block start" (Program.is_block_start p s.next))
    (steps_until_halt interp)

let suite =
  [
    case "straight line" straight_line;
    case "loop trip count" loop_trip_count;
    case "call/return balance" call_return_balance;
    case "determinism" determinism;
    case "step_into matches step_reference" step_into_matches_step_reference;
    case "restored threaded matches reference" restored_threaded_matches_reference;
    case "return with empty stack halts" return_with_empty_stack_halts;
    case "runaway recursion detected" runaway_recursion_detected;
    case "indirect targets followed" indirect_targets_followed;
    case "taken flags match terminators" taken_flags_match_terminators;
    case "next is block start" next_is_block_start;
  ]
