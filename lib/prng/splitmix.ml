(* SplitMix64 (Steele, Lea & Flood, OOPSLA 2014), the textbook 64-bit
   arithmetic.  The state is an 8-byte [Bytes] read and written with the
   unboxed 64-bit load and store primitives, so a draw keeps every [Int64]
   intermediate in a register: the generator runs on the simulator's
   per-branch hot path, and a mutable [int64] record field would box a
   fresh state on every draw.  [state]/[set_state] speak in 32-bit limbs,
   the layout snapshots store. *)

type t = Bytes.t (* 8 bytes: the 64-bit state *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let mask32 = 0xFFFF_FFFF
let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let g = Bytes.create 8 in
  set64 g 0 s;
  g

let create ~seed = of_state seed
let copy = Bytes.copy

let state g =
  let s = get64 g 0 in
  Int64.to_int (Int64.shift_right_logical s 32), Int64.to_int s land mask32

let set_state g ~hi ~lo =
  if hi < 0 || hi > mask32 || lo < 0 || lo > mask32 then
    invalid_arg "Splitmix.set_state: limbs must lie in [0, 2^32)";
  set64 g 0 (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))

(* Advance the state by the golden gamma and return mix64 of the new
   state, the reference finalizer.  Inlined so that callers unbox it. *)
let[@inline] next_int64 g =
  let s = Int64.add (get64 g 0) golden_gamma in
  set64 g 0 s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split g = of_state (next_int64 g)
let bits30 g = Int64.to_int (Int64.shift_right_logical (next_int64 g) 34)

let int g bound =
  assert (bound > 0);
  if bound <= 1 then 0
  else
    (* Rejection sampling over 30-bit values to avoid modulo bias. *)
    let limit = 0x4000_0000 - (0x4000_0000 mod bound) in
    let rec draw () =
      let v = bits30 g in
      if v < limit then v mod bound else draw ()
    in
    draw ()

let bits53 g = Int64.to_int (Int64.shift_right_logical (next_int64 g) 11)

let float g =
  (* 53 uniform bits, as in the reference double generator. *)
  float_of_int (bits53 g) *. (1.0 /. 9007199254740992.0)

let bool g = Int64.to_int (next_int64 g) land 1 = 1

let bernoulli g ~p = if p >= 1.0 then true else if p <= 0.0 then false else float g < p

(* Running sums added left to right from 0.0, the order
   [Array.fold_left ( +. ) 0.0] adds them in: the last is that fold's
   total, bit for bit. *)
let prefix_sums weights =
  let acc = ref 0.0 in
  Array.map
    (fun w ->
      acc := !acc +. w;
      !acc)
    weights

(* [x] is [float g *. total], computed in place so it stays an unboxed
   local, and the scan is a loop rather than a recursive helper, which
   would box [x] at every call. *)
let categorical g ~prefix =
  let n = Array.length prefix in
  assert (n > 0);
  let total = prefix.(n - 1) in
  assert (total > 0.0);
  let x = float_of_int (bits53 g) *. (1.0 /. 9007199254740992.0) *. total in
  let i = ref 0 in
  while !i < n - 1 && not (x < Array.unsafe_get prefix !i) do
    incr i
  done;
  !i
