module Splitmix = Regionsel_prng.Splitmix
open Fixtures

let stream g n = List.init n (fun _ -> Splitmix.next_int64 g)

let determinism () =
  let a = Splitmix.create ~seed:42L and b = Splitmix.create ~seed:42L in
  Alcotest.(check (list int64)) "same seed, same stream" (stream a 32) (stream b 32)

let seeds_differ () =
  let a = Splitmix.create ~seed:1L and b = Splitmix.create ~seed:2L in
  check_true "different seeds diverge" (stream a 8 <> stream b 8)

let copy_independent () =
  let a = Splitmix.create ~seed:5L in
  let b = Splitmix.copy a in
  let sa = stream a 16 in
  let sb = stream b 16 in
  Alcotest.(check (list int64)) "copy replays the same future" sa sb

let split_diverges () =
  let a = Splitmix.create ~seed:5L in
  let b = Splitmix.split a in
  check_true "split stream differs from parent" (stream a 8 <> stream b 8)

let split_deterministic () =
  let mk () =
    let g = Splitmix.create ~seed:9L in
    let h = Splitmix.split g in
    stream h 8
  in
  Alcotest.(check (list int64)) "split is deterministic" (mk ()) (mk ())

let int_bounds () =
  let g = Splitmix.create ~seed:3L in
  for _ = 1 to 1_000 do
    let v = Splitmix.int g 17 in
    check_true "int in bounds" (v >= 0 && v < 17)
  done

let int_one () =
  let g = Splitmix.create ~seed:3L in
  check_int "bound 1 always 0" 0 (Splitmix.int g 1)

let float_range () =
  let g = Splitmix.create ~seed:3L in
  for _ = 1 to 1_000 do
    let v = Splitmix.float g in
    check_true "float in [0,1)" (v >= 0.0 && v < 1.0)
  done

let bernoulli_extremes () =
  let g = Splitmix.create ~seed:3L in
  for _ = 1 to 100 do
    check_true "p=1 always true" (Splitmix.bernoulli g ~p:1.0);
    check_true "p=0 always false" (not (Splitmix.bernoulli g ~p:0.0))
  done

let bernoulli_rate () =
  let g = Splitmix.create ~seed:11L in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Splitmix.bernoulli g ~p:0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check_true "empirical rate near 0.3" (abs_float (rate -. 0.3) < 0.02)

let categorical_range () =
  let g = Splitmix.create ~seed:3L in
  let weights = [| 1.0; 2.0; 3.0 |] in
  for _ = 1 to 1_000 do
    let i = Splitmix.categorical g ~weights in
    check_true "index in range" (i >= 0 && i < 3)
  done

let categorical_rates () =
  let g = Splitmix.create ~seed:13L in
  let weights = [| 1.0; 3.0 |] in
  let counts = [| 0; 0 |] in
  let n = 20_000 in
  for _ = 1 to n do
    let i = Splitmix.categorical g ~weights in
    counts.(i) <- counts.(i) + 1
  done;
  let rate1 = float_of_int counts.(1) /. float_of_int n in
  check_true "weighted rate near 0.75" (abs_float (rate1 -. 0.75) < 0.02)

let categorical_zero_weight () =
  let g = Splitmix.create ~seed:3L in
  let weights = [| 0.0; 1.0; 0.0 |] in
  for _ = 1 to 200 do
    check_int "zero-weight entries never drawn" 1 (Splitmix.categorical g ~weights)
  done

let bool_balanced () =
  let g = Splitmix.create ~seed:17L in
  let n = 20_000 in
  let trues = ref 0 in
  for _ = 1 to n do
    if Splitmix.bool g then incr trues
  done;
  let rate = float_of_int !trues /. float_of_int n in
  check_true "bool near fair" (abs_float (rate -. 0.5) < 0.02)

let qcheck_int_bounds =
  QCheck.Test.make ~name:"int g bound stays in [0, bound)" ~count:500
    QCheck.(pair (int_bound 1_000_000) small_int)
    (fun (seed, bound) ->
      let bound = max 1 bound in
      let g = Splitmix.create ~seed:(Int64.of_int seed) in
      let v = Splitmix.int g bound in
      v >= 0 && v < bound)

let qcheck_bits30 =
  QCheck.Test.make ~name:"bits30 stays below 2^30" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = Splitmix.create ~seed:(Int64.of_int seed) in
      let v = Splitmix.bits30 g in
      v >= 0 && v < 0x4000_0000)

(* The reference: SplitMix64 exactly as published, one boxed [int64] of
   state and the textbook finalizer.  Every [Splitmix] draw is defined by
   it. *)
module Reference = struct
  type t = { mutable s : int64 }

  let create seed = { s = seed }

  let next r =
    r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
    let z = r.s in
    let mix z shift mul = Int64.mul (Int64.logxor z (Int64.shift_right_logical z shift)) mul in
    let z = mix (mix z 30 0xBF58476D1CE4E5B9L) 27 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let split r = { s = next r }
  let bits30 r = Int64.to_int (Int64.shift_right_logical (next r) 34)
  let bits53 r = Int64.to_int (Int64.shift_right_logical (next r) 11)
  let bool r = Int64.logand (next r) 1L = 1L
  let float r = Int64.to_float (Int64.shift_right_logical (next r) 11) *. 0x1p-53

  let rec int r bound =
    if bound <= 1 then 0
    else
      let v = bits30 r in
      if v < 0x4000_0000 - (0x4000_0000 mod bound) then v mod bound else int r bound

  let limbs r =
    ( Int64.to_int (Int64.shift_right_logical r.s 32),
      Int64.to_int (Int64.logand r.s 0xFFFF_FFFFL) )
end

type op = Next | Split | Bits30 | Bits53 | Bool | Int of int | Float | Restore

let show_op = function
  | Next -> "next_int64"
  | Split -> "split"
  | Bits30 -> "bits30"
  | Bits53 -> "bits53"
  | Bool -> "bool"
  | Int b -> Printf.sprintf "int %d" b
  | Float -> "float"
  | Restore -> "restore"

(* Run [ops] on a generator and on the reference side by side.  [Split]
   continues on the child; [Restore] continues on a fresh generator given
   the saved limbs.  After every op the draws and the limbs must agree. *)
let agrees_with_reference (seed, ops) =
  let rec go g r = function
    | [] -> true
    | op :: rest ->
        let same, g, r =
          match op with
          | Next -> Splitmix.next_int64 g = Reference.next r, g, r
          | Split ->
              let g = Splitmix.split g and r = Reference.split r in
              true, g, r
          | Bits30 -> Splitmix.bits30 g = Reference.bits30 r, g, r
          | Bits53 -> Splitmix.bits53 g = Reference.bits53 r, g, r
          | Bool -> Splitmix.bool g = Reference.bool r, g, r
          | Int b -> Splitmix.int g b = Reference.int r b, g, r
          | Float ->
              let bits = Int64.bits_of_float in
              Int64.equal (bits (Splitmix.float g)) (bits (Reference.float r)), g, r
          | Restore ->
              let hi, lo = Splitmix.state g in
              let g' = Splitmix.create ~seed:0L in
              Splitmix.set_state g' ~hi ~lo;
              true, g', r
        in
        same && Splitmix.state g = Reference.limbs r && go g r rest
  in
  go (Splitmix.create ~seed) (Reference.create seed) ops

let qcheck_reference =
  let op =
    QCheck.Gen.(
      frequency
        [
          4, return Next;
          1, return Split;
          3, return Bits30;
          3, return Bits53;
          2, return Bool;
          3, map (fun b -> Int b) (oneof [ int_range 1 20; int_range 1 (1 lsl 30) ]);
          2, return Float;
          1, return Restore;
        ])
  in
  let seed =
    QCheck.Gen.(
      oneof
        [
          ui64;
          map Int64.of_int small_signed_int;
          oneofl [ 0L; -1L; Int64.min_int; Int64.max_int ];
        ])
  in
  QCheck.Test.make ~name:"draws and limbs match a boxed Int64 SplitMix64" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(pair Int64.to_string (list show_op))
       QCheck.Gen.(pair seed (list_size (int_range 1 200) op)))
    agrees_with_reference

let state_round_trip () =
  let g = Splitmix.create ~seed:0x0123_4567_89AB_CDEFL in
  for _ = 1 to 100 do
    let hi, lo = Splitmix.state g in
    check_true "limbs lie in [0, 2^32)"
      (hi >= 0 && hi <= 0xFFFF_FFFF && lo >= 0 && lo <= 0xFFFF_FFFF);
    let h = Splitmix.create ~seed:0L in
    Splitmix.set_state h ~hi ~lo;
    Alcotest.(check (pair int int)) "set_state of state is the same state" (hi, lo)
      (Splitmix.state h);
    Alcotest.(check (list int64)) "and the same stream" (stream (Splitmix.copy g) 4) (stream h 4);
    ignore (Splitmix.next_int64 g)
  done;
  List.iter
    (fun (hi, lo) ->
      check_true "out-of-range limbs rejected"
        (try
           Splitmix.set_state g ~hi ~lo;
           false
         with Invalid_argument _ -> true))
    [ -1, 0; 0, -1; 1 lsl 32, 0; 0, 1 lsl 32 ]

(* Limbs recorded from the 32-bit-limb implementation this module
   replaced: per seed, the state at creation, after three draws, the
   parent's and the child's state after a [split], and the child's first
   draw.  Snapshots store these limbs, so they must never drift. *)
let golden_limbs =
  [
    ( 0L,
      (0x0, 0x0),
      (0xdaa66d2c, 0x7ddf743f),
      (0x78dde6e5, 0xfd29f054),
      (0xf88bb8a8, 0x724c81ec),
      5629846650018757432L );
    ( 1L,
      (0x0, 0x1),
      (0xdaa66d2c, 0x7ddf7440),
      (0x78dde6e5, 0xfd29f055),
      (0x71c18690, 0xee42c90b),
      4530617772509985760L );
    ( 42L,
      (0x0, 0x2a),
      (0xdaa66d2c, 0x7ddf7469),
      (0x78dde6e5, 0xfd29f07e),
      (0x581ce1ff, 0xe4ae394),
      3676294358273406211L );
    ( -1L,
      (0xffffffff, 0xffffffff),
      (0xdaa66d2c, 0x7ddf743e),
      (0x78dde6e5, 0xfd29f053),
      (0x6d1db36c, 0xcba982d2),
      -2615800369989352910L );
    ( 0x123456789ABCDEF0L,
      (0x12345678, 0x9abcdef0),
      (0xecdac3a5, 0x189c532f),
      (0x8b123d5e, 0x97e6cf44),
      (0x417cb9a8, 0x26d831df),
      4595640181334767486L );
    ( Int64.min_int,
      (0x80000000, 0x0),
      (0x5aa66d2c, 0x7ddf743f),
      (0xf8dde6e5, 0xfd29f054),
      (0x592e2683, 0x83e356f9),
      -7719069547007534690L );
  ]

let golden_state_limbs () =
  let limbs = Alcotest.(pair int int) in
  List.iter
    (fun (seed, created, after3, parent, child, first) ->
      let name what = Printf.sprintf "seed %Ld: %s" seed what in
      let g = Splitmix.create ~seed in
      Alcotest.check limbs (name "created") created (Splitmix.state g);
      for _ = 1 to 3 do
        ignore (Splitmix.next_int64 g)
      done;
      Alcotest.check limbs (name "after 3 draws") after3 (Splitmix.state g);
      let c = Splitmix.split g in
      Alcotest.check limbs (name "parent after split") parent (Splitmix.state g);
      Alcotest.check limbs (name "child") child (Splitmix.state c);
      Alcotest.(check int64) (name "child's first draw") first (Splitmix.next_int64 c))
    golden_limbs

let suite =
  [
    case "determinism" determinism;
    case "seeds differ" seeds_differ;
    case "copy independent" copy_independent;
    case "split diverges" split_diverges;
    case "split deterministic" split_deterministic;
    case "int bounds" int_bounds;
    case "int bound 1" int_one;
    case "float range" float_range;
    case "bernoulli extremes" bernoulli_extremes;
    case "bernoulli rate" bernoulli_rate;
    case "categorical range" categorical_range;
    case "categorical rates" categorical_rates;
    case "categorical zero weight" categorical_zero_weight;
    case "bool balanced" bool_balanced;
    QCheck_alcotest.to_alcotest qcheck_int_bounds;
    QCheck_alcotest.to_alcotest qcheck_bits30;
    QCheck_alcotest.to_alcotest qcheck_reference;
    case "state round trip" state_round_trip;
    case "golden state limbs" golden_state_limbs;
  ]
