open Regionsel_isa

type t = {
  program : Program.t;
  counts : int array;  (* block id -> live count; 0 = no live counter *)
  mutable live : int;
  mutable high_water : int;
  mutable total_allocations : int;
}

let create program =
  {
    program;
    counts = Array.make (Program.n_blocks program) 0;
    live = 0;
    high_water = 0;
    total_allocations = 0;
  }

let incr t a =
  let id = Program.block_id t.program a in
  if id < 0 then
    invalid_arg (Printf.sprintf "Counters.incr: %s is not a block start" (Addr.to_string a));
  let c = Array.unsafe_get t.counts id in
  if c = 0 then begin
    t.total_allocations <- t.total_allocations + 1;
    t.live <- t.live + 1;
    if t.live > t.high_water then t.high_water <- t.live
  end;
  Array.unsafe_set t.counts id (c + 1);
  c + 1

let peek t a =
  let id = Program.block_id t.program a in
  if id < 0 then 0 else t.counts.(id)

let release t a =
  let id = Program.block_id t.program a in
  if id >= 0 && t.counts.(id) > 0 then begin
    t.counts.(id) <- 0;
    t.live <- t.live - 1
  end

let live t = t.live
let high_water t = t.high_water
let total_allocations t = t.total_allocations

(* Walked in descending block id, so the list comes out ascending. *)
let live_entries t =
  let acc = ref [] in
  for id = Array.length t.counts - 1 downto 0 do
    let c = t.counts.(id) in
    if c > 0 then acc := ((Program.block_of_id t.program id).Block.start, c) :: !acc
  done;
  !acc

(* A simulated optimizer crash loses every live counter but not the pool's
   lifetime statistics: the high-water mark and allocation count are run
   metrics, not recoverable state. *)
let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.live <- 0

(* Checkpoint support.  Block ids increase with address, so walking the
   array emits the live counters in ascending address order. *)

let save t emit =
  emit t.live;
  List.iter
    (fun (a, c) ->
      emit a;
      emit c)
    (live_entries t);
  emit t.high_water;
  emit t.total_allocations

let load t read =
  let n = read () in
  if n < 0 then failwith "Counters.load: negative table length";
  let counts = Array.make (Array.length t.counts) 0 in
  for _ = 1 to n do
    let a = read () in
    let c = read () in
    let id = Program.block_id t.program a in
    if id < 0 then failwith "Counters.load: counter address is not a block start";
    if c < 1 then failwith "Counters.load: non-positive count";
    if counts.(id) > 0 then failwith "Counters.load: duplicate counter address";
    counts.(id) <- c
  done;
  let high_water = read () in
  let total_allocations = read () in
  (* Commit only once the whole stream has parsed. *)
  Array.blit counts 0 t.counts 0 (Array.length counts);
  t.live <- n;
  t.high_water <- high_water;
  t.total_allocations <- total_allocations
