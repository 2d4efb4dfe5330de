(* Shared builders for the scenario programs used across test suites,
   including the paper's three motivating examples (Figures 2, 3 and 4). *)

module Builder = Regionsel_workload.Builder
module Behavior = Regionsel_workload.Behavior
module Image = Regionsel_workload.Image
module Simulator = Regionsel_engine.Simulator
module Context = Regionsel_engine.Context
module Code_cache = Regionsel_engine.Code_cache
module Region = Regionsel_engine.Region
module Params = Regionsel_engine.Params

(* The Figure 2 program: a hot loop whose dominant path calls a function at
   a lower address, so the call is a backward branch and the loop is an
   interprocedural cycle.  Block names follow the figure: the loop is
   A B D (D calls E), the callee is E F, and C is a rarely-taken side. *)
let figure2 ?(iters = 5_000) () =
  let b = Builder.create () in
  Builder.func b "callee";
  Builder.block b ~size:4 Builder.Fallthrough (* E *);
  Builder.block b ~size:2 Builder.Return (* F *);
  Builder.func b "main";
  Builder.block b ~size:2 Builder.Fallthrough;
  Builder.block b ~label:"a" ~size:3 (Builder.Cond ("c", Behavior.Bernoulli 0.02));
  Builder.block b ~label:"bd" ~size:4 (Builder.Call "callee");
  Builder.block b ~size:2 (Builder.Cond ("a", Behavior.Loop iters));
  Builder.block b ~size:1 Builder.Halt;
  Builder.block b ~label:"c" ~size:3 (Builder.Jump "bd");
  Builder.compile b ~name:"figure2" ~entry:"main"

(* An empty edge profile over the Figure 2 program, for tests that record
   edges by address ({!Regionsel_engine.Edge_profile.record}), which any
   program's profile takes. *)
let edge_profile () =
  Regionsel_engine.Edge_profile.create ~program:(figure2 ()).Image.program ()

(* The Figure 3 program: simple nested loops.  A is the outer-loop header
   falling into the inner loop B, which exits to C, which branches back to
   A. *)
let figure3 ?(inner = 20) ?(outer = 2_000) () =
  let b = Builder.create () in
  Builder.func b "main";
  Builder.block b ~size:2 Builder.Fallthrough;
  Builder.block b ~label:"a" ~size:3 Builder.Fallthrough;
  Builder.block b ~label:"inner" ~size:4 (Builder.Cond ("inner", Behavior.Loop inner));
  Builder.block b ~label:"c" ~size:3 (Builder.Cond ("a", Behavior.Loop outer));
  Builder.block b ~size:1 Builder.Halt;
  Builder.compile b ~name:"figure3" ~entry:"main"

(* The Figure 4 program inside a loop: an unbiased branch (ending A)
   followed by a biased branch (ending D), all paths rejoining. *)
let figure4 ?(iters = 20_000) ?(p_first = 0.5) ?(p_second = 0.9) () =
  let b = Builder.create () in
  Builder.func b "main";
  Builder.block b ~size:2 Builder.Fallthrough;
  Builder.block b ~label:"a" ~size:3 (Builder.Cond ("c", Behavior.Bernoulli p_first));
  Builder.block b ~label:"b" ~size:4 (Builder.Jump "d");
  Builder.block b ~label:"c" ~size:4 Builder.Fallthrough;
  Builder.block b ~label:"d" ~size:3 (Builder.Cond ("f", Behavior.Bernoulli p_second));
  Builder.block b ~label:"e" ~size:4 (Builder.Jump "g");
  Builder.block b ~label:"f" ~size:4 Builder.Fallthrough;
  Builder.block b ~label:"g" ~size:2 (Builder.Cond ("a", Behavior.Loop iters));
  Builder.block b ~size:1 Builder.Halt;
  Builder.compile b ~name:"figure4" ~entry:"main"

(* A single self-contained hot loop, the simplest possible workload. *)
let simple_loop ?(trip = 10_000) ?(body_size = 5) () =
  let b = Builder.create () in
  Builder.func b "main";
  Builder.block b ~size:2 Builder.Fallthrough;
  Builder.block b ~label:"head" ~size:body_size (Builder.Cond ("head", Behavior.Loop trip));
  Builder.block b ~size:1 Builder.Halt;
  Builder.compile b ~name:"simple_loop" ~entry:"main"

(* A program in which every address below 16384 starts a one-instruction
   Halt block.  Regions, caches and counter pools are built for a program;
   tests that assemble blocks by hand, at whatever addresses they like,
   build them for this one, where each of their blocks starts on a block
   start. *)
let grid_program =
  let p =
    lazy
      (Regionsel_isa.Program.of_blocks_exn ~entry:0
         (List.init 16_384 (fun start ->
              Regionsel_isa.Block.make ~start ~size:1 ~term:Regionsel_isa.Terminator.Halt)))
  in
  fun () -> Lazy.force p

(* A code cache over {!grid_program}, with the default icache line size. *)
let grid_cache ?capacity_bytes ?eviction ?blacklist_base_cooldown ?blacklist_max_shift
    ?telemetry () =
  Code_cache.create ?capacity_bytes ?eviction ?blacklist_base_cooldown ?blacklist_max_shift
    ?telemetry ~program:(grid_program ())
    ~icache_line_bytes:Params.default.Params.icache_line_bytes ()

let run ?params ?(seed = 7L) ?(max_steps = 200_000) policy image =
  Simulator.run ?params ~seed ~policy ~max_steps image

let regions_of (result : Simulator.result) =
  Code_cache.regions result.Simulator.ctx.Context.cache

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  m = 0 || scan 0

(* Alcotest helpers. *)
let check_true msg b = Alcotest.(check bool) msg true b
let check_int = Alcotest.(check int)
let case name f = Alcotest.test_case name `Quick f

(* A checkpoint [save] function's int stream, and a [load] reader over one
   that fails when the stream runs out, as a short snapshot section does. *)
let saved_ints save =
  let acc = ref [] in
  save (fun v -> acc := v :: !acc);
  List.rev !acc

let reader_of_ints ints =
  let rest = ref ints in
  fun () ->
    match !rest with
    | v :: tl ->
      rest := tl;
      v
    | [] -> failwith "stream ended"

(* A section loader either parses its whole stream or changes nothing:
   [load] must raise [Failure] on [malformed] and leave [save]'s stream as
   it was. *)
let check_load_is_atomic ~what ~save ~load malformed =
  let before = saved_ints save in
  (match load (reader_of_ints malformed) with
  | () -> Alcotest.failf "%s: a malformed stream loaded" what
  | exception Failure _ -> ());
  Alcotest.(check (list int)) (what ^ ": state unchanged") before (saved_ints save)
