type t = { bits : Bytes.t; n : int; mutable card : int }

let create n =
  if n < 0 then invalid_arg "Id_set.create: negative capacity";
  { bits = Bytes.make ((n + 7) lsr 3) '\000'; n; card = 0 }

let[@inline] byte t i = Char.code (Bytes.unsafe_get t.bits (i lsr 3))

(* The range test doubles as the bounds check, so the reads skip theirs. *)
let[@inline] mem t i = i >= 0 && i < t.n && byte t i land (1 lsl (i land 7)) <> 0

let add t i =
  if i < 0 || i >= t.n then invalid_arg "Id_set.add: id out of range";
  let b = byte t i and m = 1 lsl (i land 7) in
  if b land m = 0 then begin
    Bytes.unsafe_set t.bits (i lsr 3) (Char.unsafe_chr (b lor m));
    t.card <- t.card + 1
  end

let remove t i =
  if mem t i then begin
    Bytes.unsafe_set t.bits (i lsr 3) (Char.unsafe_chr (byte t i land lnot (1 lsl (i land 7))));
    t.card <- t.card - 1
  end

let cardinal t = t.card

let iter f t =
  for k = 0 to Bytes.length t.bits - 1 do
    let b = Char.code (Bytes.unsafe_get t.bits k) in
    if b <> 0 then
      for j = 0 to 7 do
        if b land (1 lsl j) <> 0 then f ((k lsl 3) + j)
      done
  done
