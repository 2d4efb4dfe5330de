type t = { start : Addr.t; size : int; term : Terminator.t }

let make ~start ~size ~term =
  if size < 1 then invalid_arg "Block.make: size must be >= 1";
  { start; size; term }

let last b = b.start + b.size - 1
let fall_addr b = b.start + b.size

let static_succ b ~taken =
  match b.term with
  | Terminator.Jump tgt | Terminator.Call tgt -> if taken then tgt else Addr.none
  | Terminator.Cond tgt -> if taken then tgt else fall_addr b
  | Terminator.Fallthrough -> if taken then Addr.none else fall_addr b
  | Terminator.Return | Terminator.Indirect_jump | Terminator.Indirect_call | Terminator.Halt ->
    Addr.none

let equal a b = Addr.equal a.start b.start && a.size = b.size && Terminator.equal a.term b.term

let pp ppf b =
  Format.fprintf ppf "[%a..%a: %a]" Addr.pp b.start Addr.pp (last b) Terminator.pp b.term
