open Regionsel_isa
module Simulator = Regionsel_engine.Simulator
module Context = Regionsel_engine.Context
module Bitbuf = Regionsel_core.Bitbuf

exception Hard_corruption of string

type degraded = { section : string; reason : string }
type report = { restored : string list; degraded : degraded list; skipped : int }

let clean r = r.degraded = []

(* CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320), sliced by eight:
   table [k] (entries [256k .. 256k+255]) maps a byte to its contribution
   [k] bytes further on, so eight bytes, read in one little-endian 64-bit
   load, fold into the register with eight independent lookups instead of
   a chain of eight dependent ones. *)
let crc_tables =
  lazy
    (let t = Array.make 2048 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for i = 256 to 2047 do
       let p = t.(i - 256) in
       t.(i) <- (p lsr 8) lxor t.(p land 0xFF)
     done;
     t)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let crc_update c bytes ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length bytes then invalid_arg "Persist.crc32";
  let t = Lazy.force crc_tables in
  let c = ref c and i = ref pos and stop = pos + len in
  while !i + 8 <= stop do
    let w = get64u bytes !i in
    let w = if Sys.big_endian then bswap64 w else w in
    let x = !c lxor (Int64.to_int w land 0xFFFFFFFF) in
    let y = Int64.to_int (Int64.shift_right_logical w 32) in
    c :=
      Array.unsafe_get t (1792 + (x land 0xFF))
      lxor Array.unsafe_get t (1536 + ((x lsr 8) land 0xFF))
      lxor Array.unsafe_get t (1280 + ((x lsr 16) land 0xFF))
      lxor Array.unsafe_get t (1024 + (x lsr 24))
      lxor Array.unsafe_get t (768 + (y land 0xFF))
      lxor Array.unsafe_get t (512 + ((y lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((y lsr 16) land 0xFF))
      lxor Array.unsafe_get t (y lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    let b = Char.code (Bytes.unsafe_get bytes !i) in
    c := Array.unsafe_get t ((!c lxor b) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  !c

let crc32 bytes ~pos ~len = crc_update 0xFFFFFFFF bytes ~pos ~len lxor 0xFFFFFFFF

(* A section's checksum covers its 12-byte frame header (tag, version,
   payload length) and the payload.  Covering the header matters: a bit
   flip in the tag would otherwise turn a known section into a
   silently-skipped "unknown" one — data loss with a clean report. *)
let crc32_frame bytes ~hpos ~ppos ~plen =
  crc_update (crc_update 0xFFFFFFFF bytes ~pos:hpos ~len:12) bytes ~pos:ppos ~len:plen
  lxor 0xFFFFFFFF

(* Every quantity in the file is a big-endian u32; OCaml ints ride as two
   of them, low word first then the high 31 bits ([asr 32] keeps the sign
   in bit 30), which reconstructs every 63-bit int exactly. *)

let bu32 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (v land 0xFF))

let emit_int w v =
  Bitbuf.Writer.add_uint32 w (v land 0xFFFFFFFF);
  Bitbuf.Writer.add_uint32 w ((v asr 32) land 0x7FFFFFFF)

let read_int r =
  let lo = Bitbuf.Reader.read_uint32 r in
  let hi = Bitbuf.Reader.read_uint32 r in
  if hi > 0x7FFFFFFF then failwith "malformed int (high half out of range)";
  (hi lsl 32) lor lo

let magic = "RSNP"
let format_version = 1
let section_version = 1

(* Stable tag table.  New sections append new tags; a reader skips tags it
   does not know, so adding one never breaks older snapshots. *)
let tags =
  [
    (1, "interp");
    (2, "stats");
    (3, "edges");
    (4, "icache");
    (5, "counters");
    (6, "gauges");
    (7, "cache");
    (8, "blacklist");
    (9, "policy");
    (10, "telemetry");
    (11, "loop");
  ]

let tag_of_section name =
  match List.find_opt (fun (_, n) -> String.equal n name) tags with
  | Some (t, _) -> t
  | None -> invalid_arg ("Persist: section has no tag: " ^ name)

let section_of_tag tag = Option.map snd (List.find_opt (fun (t, _) -> t = tag) tags)

let seed_lo seed = Int64.to_int (Int64.logand seed 0xFFFFFFFFL)
let seed_hi seed = Int64.to_int (Int64.shift_right_logical seed 32)

let encode ~seed ~policy (internals : Simulator.internals) =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf magic;
  bu32 buf format_version;
  bu32 buf (Program.n_blocks internals.Simulator.int_ctx.Context.program);
  bu32 buf (seed_lo seed);
  bu32 buf (seed_hi seed);
  bu32 buf (String.length policy);
  Buffer.add_string buf policy;
  (* The section count makes a truncation at an exact frame boundary
     detectable: without it, a snapshot cut between frames parses as a
     shorter-but-valid file and the missing tail would re-warm silently. *)
  bu32 buf (List.length internals.Simulator.int_sections);
  let header = Buffer.to_bytes buf in
  bu32 buf (crc32 header ~pos:0 ~len:(Bytes.length header));
  List.iter
    (fun (s : Simulator.section) ->
      let w = Bitbuf.Writer.create () in
      s.Simulator.sec_save (emit_int w);
      let payload = Bitbuf.Writer.contents w in
      let len = Bytes.length payload in
      let hdr = Buffer.create 12 in
      bu32 hdr (tag_of_section s.Simulator.sec_name);
      bu32 hdr section_version;
      bu32 hdr len;
      let hdr = Buffer.to_bytes hdr in
      let framed = Bytes.cat hdr payload in
      Buffer.add_bytes buf hdr;
      bu32 buf (crc32_frame framed ~hpos:0 ~ppos:12 ~plen:len);
      Buffer.add_bytes buf payload)
    internals.Simulator.int_sections;
  Buffer.to_bytes buf

let decode_into bytes ~seed ~policy (internals : Simulator.internals) =
  let len = Bytes.length bytes in
  let pos = ref 0 in
  let hard msg = raise (Hard_corruption msg) in
  let u32 () =
    let v =
      (Char.code (Bytes.get bytes !pos) lsl 24)
      lor (Char.code (Bytes.get bytes (!pos + 1)) lsl 16)
      lor (Char.code (Bytes.get bytes (!pos + 2)) lsl 8)
      lor Char.code (Bytes.get bytes (!pos + 3))
    in
    pos := !pos + 4;
    v
  in
  let u32_hard what = if !pos + 4 > len then hard ("truncated header: " ^ what) else u32 () in
  if len < 4 || not (String.equal (Bytes.sub_string bytes 0 4) magic) then hard "bad magic";
  pos := 4;
  let ver = u32_hard "format version" in
  if ver <> format_version then
    hard (Printf.sprintf "unsupported format version %d (this build reads %d)" ver format_version);
  let n_blocks = u32_hard "block count" in
  let slo = u32_hard "seed" in
  let shi = u32_hard "seed" in
  let name_len = u32_hard "policy name length" in
  if !pos + name_len > len then hard "truncated header: policy name";
  let snap_policy = Bytes.sub_string bytes !pos name_len in
  pos := !pos + name_len;
  let n_sections = u32_hard "section count" in
  let header_end = !pos in
  let header_crc = u32_hard "header checksum" in
  if header_crc <> crc32 bytes ~pos:0 ~len:header_end then hard "header checksum mismatch";
  let run_blocks = Program.n_blocks internals.Simulator.int_ctx.Context.program in
  if n_blocks <> run_blocks then
    hard
      (Printf.sprintf "snapshot is for a different program (%d blocks, this run has %d)"
         n_blocks run_blocks);
  let snap_seed = Int64.logor (Int64.of_int slo) (Int64.shift_left (Int64.of_int shi) 32) in
  if not (Int64.equal snap_seed seed) then
    hard (Printf.sprintf "snapshot seed %Ld does not match this run's seed %Ld" snap_seed seed);
  if not (String.equal snap_policy policy) then
    hard
      (Printf.sprintf "snapshot policy %S does not match this run's policy %S" snap_policy
         policy);
  let restored = ref [] in
  let degraded = ref [] in
  let skipped = ref 0 in
  let drop section reason = degraded := { section; reason } :: !degraded in
  let find_section n =
    List.find_opt
      (fun (s : Simulator.section) -> String.equal s.Simulator.sec_name n)
      internals.Simulator.int_sections
  in
  let seen = ref 0 in
  let stop = ref false in
  while (not !stop) && !pos < len do
    incr seen;
    if !pos + 16 > len then begin
      drop "<frame>" "truncated section header";
      stop := true
    end
    else begin
      let fpos = !pos in
      let tag = u32 () in
      let sver = u32 () in
      let plen = u32 () in
      let pcrc = u32 () in
      let sec_name =
        match section_of_tag tag with Some n -> n | None -> Printf.sprintf "tag-%d" tag
      in
      if !pos + plen > len then begin
        drop sec_name "truncated payload";
        stop := true
      end
      else begin
        let ppos = !pos in
        pos := !pos + plen;
        if pcrc <> crc32_frame bytes ~hpos:fpos ~ppos ~plen then
          drop sec_name "checksum mismatch"
        else
          match find_section sec_name with
          | None ->
            (* Unknown tag, or a section this run has no home for (e.g. a
               telemetry section restored into a run without a sink).
               The checksum above already vouched for the frame, so this
               is version skew or configuration skew, not corruption. *)
            incr skipped
          | Some s ->
            if sver <> section_version then
              drop sec_name (Printf.sprintf "unsupported section version %d" sver)
            else begin
            let r = Bitbuf.Reader.create ~pos:ppos bytes ~n_bits:(plen * 8) in
            match s.Simulator.sec_load (fun () -> read_int r) with
            | () -> restored := sec_name :: !restored
            | exception Failure msg -> drop sec_name msg
            | exception Invalid_argument msg -> drop sec_name msg
            | exception Bitbuf.Reader.Out_of_bits -> drop sec_name "payload too short"
          end
      end
    end
  done;
  if !seen < n_sections then
    drop "<file>"
      (Printf.sprintf "snapshot ends after %d of %d sections" !seen n_sections);
  { restored = List.rev !restored; degraded = List.rev !degraded; skipped = !skipped }

let save_file ?crash_after_bytes ~path ~seed ~policy internals =
  Io.write_atomic ?crash_after_bytes ~path (encode ~seed ~policy internals)

(* Daemon session naming: one snapshot file per (tenant, bench, policy,
   seed) identity.  The tenant name is sanitized into a filesystem-safe
   stem; the rest of the identity rides as a CRC32 suffix, so a tenant
   reconnecting under a different bench/policy/seed resolves to a fresh
   session instead of tripping the snapshot header's identity check. *)
let session_file ~dir ~tenant ~bench ~policy ~seed =
  let stem =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
        | _ -> '_')
      tenant
  in
  let stem = if stem = "" then "tenant" else stem in
  let ident = Bytes.of_string (Printf.sprintf "%s|%s|%s|%Ld" tenant bench policy seed) in
  Filename.concat dir
    (Printf.sprintf "%s-%08x.session" stem (crc32 ident ~pos:0 ~len:(Bytes.length ident)))

let restore_file ~path ~seed ~policy internals =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = in_channel_length ic in
      let data = really_input_string ic n in
      decode_into (Bytes.of_string data) ~seed ~policy internals)
