open Regionsel_isa
module Image = Regionsel_workload.Image
module Behavior = Regionsel_workload.Behavior
module Splitmix = Regionsel_prng.Splitmix

exception Runaway_stack of int

let max_stack_depth = 100_000

(* The step record is all-immediate — three untagged ints — so filling it
   is three plain stores with no write barrier.  Callers that need the
   executed [Block.t] translate the dense id through the program's block
   array themselves (one array read). *)
type step = { mutable block_id : int; mutable taken : bool; mutable next : Addr.t }

let make_step () = { block_id = -1; taken = false; next = Addr.none }

(* The shadow stack is a growable int array rather than a [Stack.t]: pushing
   a return address writes one slot instead of allocating a list cell. *)
type t = {
  image : Image.t;
  program : Program.t;
  mutable pc : Addr.t; (* Addr.none once halted *)
  mutable stack : Addr.t array;
  mutable stack_len : int;
  cond_states : Behavior.state option array; (* keyed by dense block id *)
  indirect_states : Behavior.indirect_state option array;
  prng : Splitmix.t;
  mutable ops : (step -> unit) array; (* dense block id -> terminator op *)
}

(* Branch-behaviour states are keyed by the branch block's dense id, so the
   per-branch lookup is an array read.  States are still created lazily in
   first-execution order — by both steppers — which preserves the per-site
   PRNG streams (and hence bit-for-bit behaviour) across them. *)
let cond_state t id site =
  match t.cond_states.(id) with
  | Some s -> s
  | None ->
    let s = Behavior.make_state (Image.cond_spec t.image site) t.prng in
    t.cond_states.(id) <- Some s;
    s

let indirect_state t id site =
  match t.indirect_states.(id) with
  | Some s -> s
  | None ->
    let s = Behavior.make_indirect (Image.indirect_spec t.image site) t.prng in
    t.indirect_states.(id) <- Some s;
    s

let push_return t addr =
  if t.stack_len >= max_stack_depth then raise (Runaway_stack max_stack_depth);
  if t.stack_len = Array.length t.stack then begin
    let bigger = Array.make (2 * Array.length t.stack) 0 in
    Array.blit t.stack 0 bigger 0 t.stack_len;
    t.stack <- bigger
  end;
  t.stack.(t.stack_len) <- addr;
  t.stack_len <- t.stack_len + 1

let pop_return t (s : step) =
  s.taken <- true;
  if t.stack_len = 0 then s.next <- Addr.none
  else begin
    t.stack_len <- t.stack_len - 1;
    s.next <- Array.unsafe_get t.stack t.stack_len
  end

let bad_transfer site next =
  invalid_arg
    (Printf.sprintf "Interp.step: transfer from %s to %s, which is not a block start"
       (Addr.to_string site) (Addr.to_string next))

(* Threaded-code dispatch: each block's terminator is compiled once, at
   interpreter creation, into a closure indexed by the block's dense id —
   the same flat-array shape [Region.of_spec] gives compiled automata.  A
   step is then an array load and one indirect call; the closure has the
   fall-through and target addresses pre-resolved as captured ints, so the
   per-variant [match], the [Block.last] site recomputation, and the
   per-step target validation all disappear from the hot path.

   Dropping the validation is sound for statically-addressed terminators:
   [Program.validate] is the only constructor of [Program.t] and proves
   every Jump/Cond/Call target and every fall-through address is a block
   start — and return addresses are pushed Call fall-throughs, so they are
   covered too.  Only the two indirect terminators take targets from
   behaviour specs, which the program proof does not reach; their ops keep
   the per-step check. *)
let compile_op t (block : Block.t) id =
  let fall = Block.fall_addr block in
  let site = Block.last block in
  match block.Block.term with
  | Terminator.Fallthrough ->
    fun s ->
      s.taken <- false;
      s.next <- fall
  | Terminator.Jump tgt ->
    fun s ->
      s.taken <- true;
      s.next <- tgt
  | Terminator.Cond tgt ->
    fun s ->
      if Behavior.decide (cond_state t id site) then begin
        s.taken <- true;
        s.next <- tgt
      end
      else begin
        s.taken <- false;
        s.next <- fall
      end
  | Terminator.Call tgt ->
    fun s ->
      push_return t fall;
      s.taken <- true;
      s.next <- tgt
  | Terminator.Indirect_jump ->
    fun s ->
      let next = Behavior.choose (indirect_state t id site) in
      if not (Program.is_block_start t.program next) then bad_transfer site next;
      s.taken <- true;
      s.next <- next
  | Terminator.Indirect_call ->
    fun s ->
      let next = Behavior.choose (indirect_state t id site) in
      if not (Program.is_block_start t.program next) then bad_transfer site next;
      push_return t fall;
      s.taken <- true;
      s.next <- next
  | Terminator.Return -> fun s -> pop_return t s
  | Terminator.Halt ->
    fun s ->
      s.taken <- false;
      s.next <- Addr.none

let create image ~seed =
  let program = image.Image.program in
  let n = Program.n_blocks program in
  let t =
    {
      image;
      program;
      pc = Program.entry program;
      stack = Array.make 64 0;
      stack_len = 0;
      cond_states = Array.make n None;
      indirect_states = Array.make n None;
      prng = Splitmix.create ~seed;
      ops = [||];
    }
  in
  t.ops <- Array.init n (fun id -> compile_op t (Program.block_of_id program id) id);
  t

let[@inline] step_into t (s : step) =
  let pc = t.pc in
  if Addr.is_none pc then false
  else begin
    (* [pc] is always a validated block start, so the id is in range. *)
    let id = Program.block_id t.program pc in
    s.block_id <- id;
    (Array.unsafe_get t.ops id) s;
    t.pc <- s.next;
    true
  end

(* The reference stepper: a [match] over terminator variants with the
   fall-through, site, and validation recomputed per step — the plain
   reading of the terminators the threaded ops are compiled from.  The
   sanitizer steps its shadow interpreter with it, so every checked run is
   a step-by-step differential of the threaded path against this one. *)
let step_reference t (s : step) =
  let pc = t.pc in
  if Addr.is_none pc then false
  else begin
    let program = t.program in
    let id = Program.block_id program pc in
    let block = Program.block_of_id program id in
    let site = Block.last block in
    s.block_id <- id;
    (match block.Block.term with
    | Terminator.Fallthrough ->
      s.taken <- false;
      s.next <- Block.fall_addr block
    | Terminator.Jump tgt ->
      s.taken <- true;
      s.next <- tgt
    | Terminator.Cond tgt ->
      if Behavior.decide (cond_state t id site) then begin
        s.taken <- true;
        s.next <- tgt
      end
      else begin
        s.taken <- false;
        s.next <- Block.fall_addr block
      end
    | Terminator.Call tgt ->
      push_return t (Block.fall_addr block);
      s.taken <- true;
      s.next <- tgt
    | Terminator.Indirect_jump ->
      s.taken <- true;
      s.next <- Behavior.choose (indirect_state t id site)
    | Terminator.Indirect_call ->
      push_return t (Block.fall_addr block);
      s.taken <- true;
      s.next <- Behavior.choose (indirect_state t id site)
    | Terminator.Return -> pop_return t s
    | Terminator.Halt ->
      s.taken <- false;
      s.next <- Addr.none);
    let next = s.next in
    if (not (Addr.is_none next)) && not (Program.is_block_start program next) then
      bad_transfer site next;
    t.pc <- next;
    true
  end

(* Checkpoint support.  The warm state of an interpreter is the program
   counter, the shadow-stack prefix, the root PRNG limbs, and every
   branch-behaviour state created so far.  The op table is a pure function
   of the image and is recompiled by [create].

   Restore materializes the saved behaviour states through the same lazy
   constructors the step path uses — each creation splits the root PRNG,
   exactly as it did in the original run — and then overwrites the root
   limbs and every embedded stream with the saved values, so the order of
   materialization cannot matter: every PRNG position ends up exactly as
   saved, and sites that had not yet executed at the checkpoint will split
   identical streams at their (unchanged) first execution. *)

let save_warm t emit =
  emit t.pc;
  emit t.stack_len;
  for i = 0 to t.stack_len - 1 do
    emit t.stack.(i)
  done;
  let hi, lo = Splitmix.state t.prng in
  emit hi;
  emit lo;
  let n = Program.n_blocks t.program in
  for id = 0 to n - 1 do
    match t.cond_states.(id) with
    | None -> emit 0
    | Some s ->
      emit 1;
      Behavior.save_state s emit
  done;
  for id = 0 to n - 1 do
    match t.indirect_states.(id) with
    | None -> emit 0
    | Some s ->
      emit 1;
      Behavior.save_indirect s emit
  done

let load_warm t read =
  let pc = read () in
  if not (Addr.is_none pc || Program.is_block_start t.program pc) then
    failwith "Interp.load_warm: saved pc is not a block start";
  let stack_len = read () in
  if stack_len < 0 || stack_len > max_stack_depth then
    failwith "Interp.load_warm: saved stack length out of range";
  let stack = Array.make (max 64 stack_len) 0 in
  for i = 0 to stack_len - 1 do
    let a = read () in
    if not (Program.is_block_start t.program a) then
      failwith "Interp.load_warm: saved return address is not a block start";
    stack.(i) <- a
  done;
  let hi = read () in
  let lo = read () in
  let n = Program.n_blocks t.program in
  for id = 0 to n - 1 do
    match read () with
    | 0 -> ()
    | 1 ->
      let site = Block.last (Program.block_of_id t.program id) in
      Behavior.load_state (cond_state t id site) read
    | _ -> failwith "Interp.load_warm: bad cond-state presence flag"
  done;
  for id = 0 to n - 1 do
    match read () with
    | 0 -> ()
    | 1 ->
      let site = Block.last (Program.block_of_id t.program id) in
      Behavior.load_indirect (indirect_state t id site) read
    | _ -> failwith "Interp.load_warm: bad indirect-state presence flag"
  done;
  (* Only after every lazy materialization has drawn its split. *)
  Splitmix.set_state t.prng ~hi ~lo;
  t.pc <- pc;
  t.stack <- stack;
  t.stack_len <- stack_len

let block t (s : step) = Program.block_of_id t.program s.block_id
let pc t = if Addr.is_none t.pc then None else Some t.pc
let stack_depth t = t.stack_len
