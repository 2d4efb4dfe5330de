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
  mutable cur : int; (* dense id of the next block; -1 once halted *)
  mutable stack : Addr.t array;
  mutable stack_len : int;
  cond_states : Behavior.state option array; (* keyed by dense block id *)
  indirect_states : Behavior.indirect_state option array;
  prng : Splitmix.t;
  mutable ops : (step -> int) array; (* dense block id -> terminator op *)
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

(* A return pops its target and returns the target's id, or -1 (halt)
   on an empty stack.  Every pushed address is a validated [Call] or
   [Indirect_call] fall-through, or a return address [load_warm] checked,
   so the id is never -1 for a non-empty stack. *)
let pop_return t (s : step) =
  s.taken <- true;
  if t.stack_len = 0 then begin
    s.next <- Addr.none;
    -1
  end
  else begin
    t.stack_len <- t.stack_len - 1;
    let next = Array.unsafe_get t.stack t.stack_len in
    s.next <- next;
    Program.block_id t.program next
  end

let bad_transfer site next =
  invalid_arg
    (Printf.sprintf "Interp.step: transfer from %s to %s, which is not a block start"
       (Addr.to_string site) (Addr.to_string next))

(* Both arms of a conditional branch, with their ids resolved at compile
   time. *)
let[@inline] branch (s : step) taken ~tgt ~tgt_id ~fall ~fall_id =
  s.taken <- taken;
  if taken then begin
    s.next <- tgt;
    tgt_id
  end
  else begin
    s.next <- fall;
    fall_id
  end

(* A [Cond] op specialised to its site's behaviour state: the state's kind
   is matched once, here, instead of at every execution. *)
let cond_op (st : Behavior.state) ~tgt ~tgt_id ~fall ~fall_id : step -> int =
  match st with
  | Behavior.S_const true ->
    fun s ->
      s.taken <- true;
      s.next <- tgt;
      tgt_id
  | Behavior.S_const false ->
    fun s ->
      s.taken <- false;
      s.next <- fall;
      fall_id
  | Behavior.S_bernoulli b ->
    fun s -> branch s (Behavior.bernoulli_decide b) ~tgt ~tgt_id ~fall ~fall_id
  | Behavior.S_loop l -> fun s -> branch s (Behavior.loop_decide l) ~tgt ~tgt_id ~fall ~fall_id
  | Behavior.S_pattern _ | Behavior.S_phased _ ->
    fun s -> branch s (Behavior.decide st) ~tgt ~tgt_id ~fall ~fall_id

(* An indirect op bound to its site's state.  The target comes from a
   behaviour spec, which the program proof does not reach, so its id
   lookup is also the block-start check. *)
let indirect_op t st ~site ~ret : step -> int =
 fun s ->
  let next = Behavior.choose st in
  let nid = Program.block_id t.program next in
  if nid < 0 then bad_transfer site next;
  if not (Addr.is_none ret) then push_return t ret;
  s.taken <- true;
  s.next <- next;
  nid

let quicken_indirect t id site ~ret : step -> int =
 fun s ->
  let op = indirect_op t (indirect_state t id site) ~site ~ret in
  t.ops.(id) <- op;
  op s

(* Threaded-code dispatch: each block's terminator is compiled once, at
   interpreter creation, into a closure indexed by the block's dense id —
   the same flat-array shape [Region.of_spec] gives compiled automata.  An
   op fills the step record and returns the dense id of the next block
   (-1 for a halt), so a step is an array load and one indirect call: no
   terminator [match], no address-to-id lookup for a static transfer, no
   [Block.last] site recomputation and no per-step target validation.

   Dropping the validation is sound for statically-addressed terminators:
   [Program.validate] is the only constructor of [Program.t] and proves
   every Jump/Cond/Call target and every fall-through address is a block
   start, so their ids are resolved here once — and return addresses are
   pushed Call fall-throughs, so they are covered too.  Only the two
   indirect terminators take targets from behaviour specs, which the
   program proof does not reach; their ops look the target's id up per
   step, and the lookup is the check.

   Ops that need a behaviour state quicken: the first execution creates
   the state through the same lazy constructor [step_reference] uses (so
   states are still created in first-execution order), then overwrites
   its own slot with an op bound to that state — for a [Cond], one
   specialised to the state's kind. *)
let compile_op t (block : Block.t) id : step -> int =
  let program = t.program in
  let fall = Block.fall_addr block in
  let site = Block.last block in
  match block.Block.term with
  | Terminator.Fallthrough ->
    let fall_id = Program.block_id program fall in
    fun s ->
      s.taken <- false;
      s.next <- fall;
      fall_id
  | Terminator.Jump tgt ->
    let tgt_id = Program.block_id program tgt in
    fun s ->
      s.taken <- true;
      s.next <- tgt;
      tgt_id
  | Terminator.Cond tgt ->
    let tgt_id = Program.block_id program tgt and fall_id = Program.block_id program fall in
    fun s ->
      let op = cond_op (cond_state t id site) ~tgt ~tgt_id ~fall ~fall_id in
      t.ops.(id) <- op;
      op s
  | Terminator.Call tgt ->
    let tgt_id = Program.block_id program tgt in
    fun s ->
      push_return t fall;
      s.taken <- true;
      s.next <- tgt;
      tgt_id
  | Terminator.Indirect_jump -> quicken_indirect t id site ~ret:Addr.none
  | Terminator.Indirect_call -> quicken_indirect t id site ~ret:fall
  | Terminator.Return -> fun s -> pop_return t s
  | Terminator.Halt ->
    fun s ->
      s.taken <- false;
      s.next <- Addr.none;
      -1

let create image ~seed =
  let program = image.Image.program in
  let n = Program.n_blocks program in
  let t =
    {
      image;
      program;
      cur = Program.block_id program (Program.entry program);
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
  let id = t.cur in
  if id < 0 then false
  else begin
    s.block_id <- id;
    t.cur <- (Array.unsafe_get t.ops id) s;
    true
  end

(* The reference stepper: a [match] over terminator variants with the
   fall-through, site, and validation recomputed per step — the plain
   reading of the terminators the threaded ops are compiled from, deciding
   through the generic [Behavior.decide].  The sanitizer steps its shadow
   interpreter with it, so every checked run is a step-by-step
   differential of the threaded path against this one. *)
let step_reference t (s : step) =
  let id = t.cur in
  if id < 0 then false
  else begin
    let program = t.program in
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
    | Terminator.Return -> ignore (pop_return t s)
    | Terminator.Halt ->
      s.taken <- false;
      s.next <- Addr.none);
    let next = s.next in
    if Addr.is_none next then t.cur <- -1
    else begin
      let nid = Program.block_id program next in
      if nid < 0 then bad_transfer site next;
      t.cur <- nid
    end;
    true
  end

(* Checkpoint support.  The warm state of an interpreter is the program
   counter, the shadow-stack prefix, the root PRNG limbs, and every
   branch-behaviour state created so far.  The pc travels as the next
   block's address, not its id, so the stream does not depend on the id
   numbering.  The op table is not saved: [create] compiles it from the
   image, and a restored interpreter's ops quicken at their first
   execution, binding the states restored here — [load_warm] mutates
   states in place, so an op that captured one keeps seeing it.

   Restore materializes the saved behaviour states through the same lazy
   constructors the step path uses — each creation splits the root PRNG,
   exactly as it did in the original run — and then overwrites the root
   limbs and every embedded stream with the saved values, so the order of
   materialization cannot matter: every PRNG position ends up exactly as
   saved, and sites that had not yet executed at the checkpoint will split
   identical streams at their (unchanged) first execution. *)

let pc_addr t =
  if t.cur < 0 then Addr.none else (Program.block_of_id t.program t.cur).Block.start

let save_warm t emit =
  emit (pc_addr t);
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
  t.cur <- (if Addr.is_none pc then -1 else Program.block_id t.program pc);
  t.stack <- stack;
  t.stack_len <- stack_len

let block t (s : step) = Program.block_of_id t.program s.block_id
let stack_depth t = t.stack_len
