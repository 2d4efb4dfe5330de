let max_bits = 56

module Writer = struct
  type t = { mutable buf : bytes; mutable n_bits : int }

  let create ?(capacity = 16) () =
    if capacity < 0 then invalid_arg "Bitbuf.Writer.create";
    { buf = Bytes.make capacity '\000'; n_bits = 0 }

  let ensure t n_bytes =
    if n_bytes > Bytes.length t.buf then begin
      let cap = max n_bytes (2 * Bytes.length t.buf) in
      let buf = Bytes.make cap '\000' in
      Bytes.blit t.buf 0 buf 0 (Bytes.length t.buf);
      t.buf <- buf
    end

  (* The partial byte's [used] bits followed by [v] form one field of at
     most 7 + [max_bits] = 63 bits, written out a byte at a time with
     logical shifts, so bit 62 (the sign bit) is just another bit.  The
     buffer beyond [n_bits] is always zero. *)
  let add_bits t v k =
    if k < 0 || k > max_bits || v lsr k <> 0 then invalid_arg "Bitbuf.Writer.add_bits";
    let n = t.n_bits in
    let stop = n + k in
    ensure t ((stop + 7) lsr 3);
    let buf = t.buf in
    let pos = n lsr 3 and used = n land 7 in
    let head = if used = 0 then 0 else Char.code (Bytes.unsafe_get buf pos) lsr (8 - used) in
    let acc = (head lsl k) lor v in
    let rem = ref (used + k) and p = ref pos in
    while !rem >= 8 do
      rem := !rem - 8;
      Bytes.unsafe_set buf !p (Char.unsafe_chr ((acc lsr !rem) land 0xFF));
      incr p
    done;
    if !rem > 0 then Bytes.unsafe_set buf !p (Char.unsafe_chr ((acc lsl (8 - !rem)) land 0xFF));
    t.n_bits <- stop

  let add_uint32 t v = add_bits t v 32

  let length_bits t = t.n_bits

  let contents t =
    let n = (t.n_bits + 7) / 8 in
    if n = Bytes.length t.buf then t.buf else Bytes.sub t.buf 0 n
end

module Reader = struct
  (* [pos] and [limit] are absolute bit offsets into [buf]. *)
  type t = { buf : bytes; limit : int; mutable pos : int }

  exception Out_of_bits

  let create ?(pos = 0) buf ~n_bits =
    if pos < 0 || n_bits < 0 || pos + ((n_bits + 7) / 8) > Bytes.length buf then
      invalid_arg "Bitbuf.Reader.create";
    { buf; limit = (8 * pos) + n_bits; pos = 8 * pos }

  (* The bytes covering [p, p + k) are folded into one int with the
     already-consumed high bits of the first masked off: at most k + 7 <= 63
     bits, then the bits past the field are shifted out. *)
  let read_bits t k =
    if k < 0 || k > max_bits then invalid_arg "Bitbuf.Reader.read_bits";
    let p = t.pos in
    if k > t.limit - p then raise Out_of_bits;
    t.pos <- p + k;
    if k = 0 then 0
    else begin
      let buf = t.buf in
      let first = p lsr 3 and last = (p + k - 1) lsr 3 in
      let acc = ref (Char.code (Bytes.unsafe_get buf first) land (0xFF lsr (p land 7))) in
      for i = first + 1 to last do
        acc := (!acc lsl 8) lor Char.code (Bytes.unsafe_get buf i)
      done;
      !acc lsr ((8 - ((p + k) land 7)) land 7)
    end

  let read_uint32 t = read_bits t 32
end
