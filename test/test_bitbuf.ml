module Bitbuf = Regionsel_core.Bitbuf
open Fixtures

(* The widest field one call moves. *)
let max_bits = 56

(* Single bits and 2-bit codes, through the one field writer and reader. *)
let add_bit w b = Bitbuf.Writer.add_bits w (Bool.to_int b) 1
let read_bit r = Bitbuf.Reader.read_bits r 1 = 1

(* Whether the reader is at its end: one more bit is refused. *)
let at_end r =
  match Bitbuf.Reader.read_bits r 1 with
  | _ -> false
  | exception Bitbuf.Reader.Out_of_bits -> true

let roundtrip_bits () =
  let w = Bitbuf.Writer.create () in
  let bits = [ true; false; true; true; false; false; true; false; true ] in
  List.iter (add_bit w) bits;
  check_int "nine bits" 9 (Bitbuf.Writer.length_bits w);
  check_int "two bytes" 2 (Bytes.length (Bitbuf.Writer.contents w));
  let r = Bitbuf.Reader.create (Bitbuf.Writer.contents w) ~n_bits:9 in
  let back = List.init 9 (fun _ -> read_bit r) in
  Alcotest.(check (list bool)) "bits round-trip" bits back

let roundtrip_codes () =
  let w = Bitbuf.Writer.create () in
  List.iter (fun v -> Bitbuf.Writer.add_bits w v 2) [ 0; 1; 2; 3; 3; 0 ];
  Bitbuf.Writer.add_uint32 w 0xDEADBEEF;
  Bitbuf.Writer.add_bits w 2 2;
  let r = Bitbuf.Reader.create (Bitbuf.Writer.contents w) ~n_bits:(Bitbuf.Writer.length_bits w) in
  Alcotest.(check (list int)) "codes" [ 0; 1; 2; 3; 3; 0 ]
    (List.init 6 (fun _ -> Bitbuf.Reader.read_bits r 2));
  check_int "uint32" 0xDEADBEEF (Bitbuf.Reader.read_uint32 r);
  check_int "trailing code" 2 (Bitbuf.Reader.read_bits r 2);
  check_true "nothing remains" (at_end r)

let out_of_bits () =
  let w = Bitbuf.Writer.create () in
  add_bit w true;
  let r = Bitbuf.Reader.create (Bitbuf.Writer.contents w) ~n_bits:1 in
  ignore (read_bit r);
  check_true "reading past the end raises"
    (try
       ignore (read_bit r);
       false
     with Bitbuf.Reader.Out_of_bits -> true)

let growth () =
  let w = Bitbuf.Writer.create () in
  for i = 0 to 9_999 do
    add_bit w (i mod 3 = 0)
  done;
  check_int "ten thousand bits" 10_000 (Bitbuf.Writer.length_bits w);
  let r = Bitbuf.Reader.create (Bitbuf.Writer.contents w) ~n_bits:10_000 in
  let ok = ref true in
  for i = 0 to 9_999 do
    if read_bit r <> (i mod 3 = 0) then ok := false
  done;
  check_true "all bits correct after growth" !ok

let padding_is_zero () =
  let w = Bitbuf.Writer.create () in
  add_bit w true;
  let bytes = Bitbuf.Writer.contents w in
  check_int "single byte" 1 (Bytes.length bytes);
  check_int "only the top bit set" 0x80 (Char.code (Bytes.get bytes 0))

let qcheck_roundtrip =
  QCheck.Test.make ~name:"arbitrary bit sequences round-trip" ~count:300
    QCheck.(list_of_size (Gen.int_range 0 200) bool)
    (fun bits ->
      let w = Bitbuf.Writer.create () in
      List.iter (add_bit w) bits;
      let r =
        Bitbuf.Reader.create (Bitbuf.Writer.contents w) ~n_bits:(Bitbuf.Writer.length_bits w)
      in
      List.for_all (fun b -> read_bit r = b) bits)

let qcheck_uint32_roundtrip =
  QCheck.Test.make ~name:"uint32 values round-trip at any bit offset" ~count:300
    QCheck.(pair (int_range 0 15) (int_bound 0x3FFFFFFF))
    (fun (offset, v) ->
      let w = Bitbuf.Writer.create () in
      for _ = 1 to offset do
        add_bit w true
      done;
      Bitbuf.Writer.add_uint32 w v;
      let r =
        Bitbuf.Reader.create (Bitbuf.Writer.contents w) ~n_bits:(Bitbuf.Writer.length_bits w)
      in
      for _ = 1 to offset do
        ignore (read_bit r)
      done;
      Bitbuf.Reader.read_uint32 r = v)

(* --- Word-at-a-time fields -------------------------------------------- *)

let reader_of w =
  Bitbuf.Reader.create (Bitbuf.Writer.contents w) ~n_bits:(Bitbuf.Writer.length_bits w)

(* A field of every width, at every alignment, between single bits. *)
let fields_at_every_alignment () =
  for offset = 0 to 7 do
    for k = 1 to max_bits do
      List.iter
        (fun v ->
          let w = Bitbuf.Writer.create () in
          for i = 1 to offset do
            add_bit w (i land 1 = 1)
          done;
          Bitbuf.Writer.add_bits w v k;
          add_bit w true;
          check_int "length" (offset + k + 1) (Bitbuf.Writer.length_bits w);
          let r = reader_of w in
          for i = 1 to offset do
            if read_bit r <> (i land 1 = 1) then
              Alcotest.failf "prefix bit %d (offset %d, width %d)" i offset k
          done;
          let back = Bitbuf.Reader.read_bits r k in
          if back <> v then Alcotest.failf "offset %d width %d: wrote %x, read %x" offset k v back;
          check_true "trailing bit" (read_bit r);
          check_true "nothing remains" (at_end r))
        [ (1 lsl k) - 1; 0x2AAAAAAAAAAAAAAA land ((1 lsl k) - 1); 1 lsl (k - 1) ]
    done
  done

let read_bits_out_of_bits () =
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.add_bits w 0x3FF 10;
  let r = reader_of w in
  check_int "first byte" 0xFF (Bitbuf.Reader.read_bits r 8);
  check_true "a field running past the end raises"
    (try
       ignore (Bitbuf.Reader.read_bits r 3);
       false
     with Bitbuf.Reader.Out_of_bits -> true);
  check_int "the reader did not move" 3 (Bitbuf.Reader.read_bits r 2)

let reader_at_offset () =
  let bytes = Bytes.of_string "\x00\x00\xA5\x0F" in
  let r = Bitbuf.Reader.create ~pos:2 bytes ~n_bits:12 in
  check_int "reads in place from the byte offset" 0xA50 (Bitbuf.Reader.read_bits r 12);
  check_true "bits past the buffer are refused"
    (try
       ignore (Bitbuf.Reader.create ~pos:3 bytes ~n_bits:9);
       false
     with Invalid_argument _ -> true)

let bad_fields_rejected () =
  let w = Bitbuf.Writer.create () in
  let rejects f = try f (); false with Invalid_argument _ -> true in
  check_true "value wider than the field" (rejects (fun () -> Bitbuf.Writer.add_bits w 4 2));
  check_true "negative value" (rejects (fun () -> Bitbuf.Writer.add_bits w (-1) 8));
  check_true "field wider than max_bits"
    (rejects (fun () -> Bitbuf.Writer.add_bits w 0 (max_bits + 1)));
  check_int "nothing was written" 0 (Bitbuf.Writer.length_bits w)

let growth_from_small_capacity () =
  List.iter
    (fun capacity ->
      let w = Bitbuf.Writer.create ~capacity () in
      for i = 0 to 999 do
        Bitbuf.Writer.add_bits w ((i * 7) land 0x1FFF) 13
      done;
      check_int "13000 bits" 13_000 (Bitbuf.Writer.length_bits w);
      let r = reader_of w in
      for i = 0 to 999 do
        if Bitbuf.Reader.read_bits r 13 <> (i * 7) land 0x1FFF then
          Alcotest.failf "capacity %d: field %d wrong after growth" capacity i
      done)
    [ 0; 1; 3 ]

(* The model: a plain list of bits, packed MSB-first by hand.  Bits and
   2-bit codes are fields of width 1 and 2. *)
type op = Bit of bool | Code of int | Field of int * int

let model_bytes ops =
  let bits =
    List.concat_map
      (function
        | Bit b -> [ b ]
        | Code v -> [ v land 2 = 2; v land 1 = 1 ]
        | Field (v, k) -> List.init k (fun i -> (v lsr (k - 1 - i)) land 1 = 1))
      ops
  in
  let out = Bytes.make ((List.length bits + 7) / 8) '\000' in
  List.iteri
    (fun i b ->
      if b then
        Bytes.set out (i / 8)
          (Char.chr (Char.code (Bytes.get out (i / 8)) lor (0x80 lsr (i mod 8)))))
    bits;
  out

let qcheck_fields_model =
  let op =
    QCheck.Gen.(
      oneof
        [
          map (fun b -> Bit b) bool;
          map (fun v -> Code v) (int_bound 3);
          int_range 0 max_bits >>= fun k ->
          map (fun v -> Field (v land ((1 lsl k) - 1), k)) int;
        ])
  in
  let show = function
    | Bit b -> Printf.sprintf "bit %b" b
    | Code v -> Printf.sprintf "code %d" v
    | Field (v, k) -> Printf.sprintf "%x:%d" v k
  in
  QCheck.Test.make ~name:"fields match a bit-at-a-time model" ~count:300
    (QCheck.make ~print:(QCheck.Print.list show) QCheck.Gen.(list_size (int_range 0 40) op))
    (fun ops ->
      let w = Bitbuf.Writer.create ~capacity:1 () in
      List.iter
        (function
          | Bit b -> Bitbuf.Writer.add_bits w (Bool.to_int b) 1
          | Code v -> Bitbuf.Writer.add_bits w v 2
          | Field (v, k) -> Bitbuf.Writer.add_bits w v k)
        ops;
      let bytes = Bitbuf.Writer.contents w in
      let r = reader_of w in
      Bytes.equal bytes (model_bytes ops)
      && List.for_all
           (function
             | Bit b -> Bitbuf.Reader.read_bits r 1 = Bool.to_int b
             | Code v -> Bitbuf.Reader.read_bits r 2 = v
             | Field (v, k) -> Bitbuf.Reader.read_bits r k = v)
           ops
      && at_end r)

let suite =
  [
    case "roundtrip bits" roundtrip_bits;
    case "roundtrip codes" roundtrip_codes;
    case "out of bits" out_of_bits;
    case "growth" growth;
    case "padding is zero" padding_is_zero;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_uint32_roundtrip;
    case "fields at every alignment and width" fields_at_every_alignment;
    case "read_bits past the end raises" read_bits_out_of_bits;
    case "reader at a byte offset" reader_at_offset;
    case "malformed fields rejected" bad_fields_rejected;
    case "growth from a small capacity" growth_from_small_capacity;
    QCheck_alcotest.to_alcotest qcheck_fields_model;
  ]
