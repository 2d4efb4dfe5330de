(* The branch-stream seam: a run consuming a recording of itself must be
   bit-identical to the live run — the paper's substitution argument made
   executable.  Checked over the full (workload x policy) matrix, clean
   and under mixed faults, plus the on-disk codec's round-trip and
   corruption behaviour. *)

module Spec = Regionsel_workload.Spec
module Suite = Regionsel_workload.Suite
module Image = Regionsel_workload.Image
module Simulator = Regionsel_engine.Simulator
module Branch_stream = Regionsel_engine.Branch_stream
module Interp = Regionsel_engine.Interp
module Params = Regionsel_engine.Params
module Run_metrics = Regionsel_metrics.Run_metrics
module Policies = Regionsel_core.Policies
module Event_log = Regionsel_persist.Event_log
module Persist = Regionsel_persist.Persist
module Addr = Regionsel_isa.Addr
open Fixtures

let budget (spec : Spec.t) = min spec.Spec.default_steps 30_000

let tasks = Suite.grid (List.map fst Policies.all)

(* The retained events, oldest first, through the getters. *)
let iter f ev =
  for i = Branch_stream.released ev to Branch_stream.length ev - 1 do
    f ~block_id:(Branch_stream.get_block_id ev i) ~taken:(Branch_stream.get_taken ev i)
      ~next:(Branch_stream.get_next ev i)
  done

(* Live run recording its stream, then a replayed run over the recording:
   the two metric JSONs (fixed field order, lossless floats) must be
   byte-identical.  [to_json] equality is the strongest cheap comparison
   we have — it covers every exported metric. *)
let live_vs_replay ?params () =
  List.iter
    (fun ((spec : Spec.t), pname) ->
      let policy = Option.get (Policies.find pname) in
      let max_steps = budget spec in
      let image = Spec.image spec in
      let events = Branch_stream.recorder () in
      let live =
        Simulator.run ?params ~seed:1L ~record:events ~policy ~max_steps image
      in
      let replayed = Simulator.run ?params ~seed:1L ~replay:events ~policy ~max_steps image in
      let lj = Run_metrics.to_json (Run_metrics.of_result live) in
      let rj = Run_metrics.to_json (Run_metrics.of_result replayed) in
      if lj <> rj then
        Alcotest.failf "live vs replay diverged for %s under %s:\nlive:   %s\nreplay: %s"
          spec.Spec.name pname lj rj;
      (* Recording must also be pure observation: the recorded run's
         metrics equal an unrecorded run's. *)
      let plain = Simulator.run ?params ~seed:1L ~policy ~max_steps image in
      Alcotest.(check string)
        (Printf.sprintf "recording is pure observation (%s/%s)" spec.Spec.name pname)
        (Run_metrics.to_json (Run_metrics.of_result plain))
        lj)
    tasks

let matrix_clean () = live_vs_replay ()

let matrix_mixed_faults () =
  let faults = Params.fault_profile "mixed" in
  live_vs_replay ~params:{ Params.default with Params.faults } ()

(* The in-memory recorder API itself. *)
let recorder_basics () =
  let ev = Branch_stream.recorder () in
  check_int "empty" 0 (Branch_stream.length ev);
  (* Push enough events to force several growths past the initial array. *)
  for i = 0 to 4999 do
    Branch_stream.append_event ev ~block_id:(i mod 300) ~taken:(i mod 3 = 0)
      ~next:(if i mod 7 = 0 then Addr.none else i * 2)
  done;
  check_int "length" 5000 (Branch_stream.length ev);
  for i = 0 to 4999 do
    assert (Branch_stream.get_block_id ev i = i mod 300);
    assert (Branch_stream.get_taken ev i = (i mod 3 = 0));
    assert (Branch_stream.get_next ev i = if i mod 7 = 0 then Addr.none else i * 2)
  done;
  check_true "equal to itself" (Branch_stream.equal ev ev);
  let other = Branch_stream.recorder () in
  iter
    (fun ~block_id ~taken ~next -> Branch_stream.append_event other ~block_id ~taken ~next)
    ev;
  check_true "iter rebuilds an equal recording" (Branch_stream.equal ev other);
  Branch_stream.append_event other ~block_id:1 ~taken:false ~next:Addr.none;
  check_true "longer recording differs" (not (Branch_stream.equal ev other));
  check_true "negative block id rejected"
    (try
       Branch_stream.append_event ev ~block_id:(-1) ~taken:false ~next:0;
       false
     with Invalid_argument _ -> true)

(* [of_events] delivers exactly the recorded events then reports a halt,
   and a fresh interpreter reproduces the recording. *)
let stream_producers_agree () =
  let image = figure2 ~iters:500 () in
  let interp = Interp.create image ~seed:7L in
  let ev = Branch_stream.recorder () in
  let s = Interp.make_step () in
  let n = ref 0 in
  while Interp.step_into interp s && !n < 100_000 do
    Branch_stream.append ev s;
    incr n
  done;
  check_true "program halted" (!n < 100_000);
  let replay = Branch_stream.of_events ev in
  let interp2 = Interp.create image ~seed:7L in
  let a = Interp.make_step () and b = Interp.make_step () in
  let steps = ref 0 in
  let rec loop () =
    let ra = Branch_stream.next_into replay a in
    let rb = Interp.step_into interp2 b in
    check_true "streams end together" (ra = rb);
    if ra then begin
      incr steps;
      check_int "block id" b.Interp.block_id a.Interp.block_id;
      check_true "taken" (a.Interp.taken = b.Interp.taken);
      check_true "next" (Addr.equal a.Interp.next b.Interp.next);
      loop ()
    end
  in
  loop ();
  check_int "replay delivered every event" (Branch_stream.length ev) !steps

(* --- Event_log codec ------------------------------------------------ *)

let record_of (spec : Spec.t) pname =
  let policy = Option.get (Policies.find pname) in
  let events = Branch_stream.recorder () in
  ignore
    (Simulator.run ~seed:1L ~record:events ~policy ~max_steps:(budget spec)
       (Spec.image spec));
  events

let codec_round_trip () =
  List.iter
    (fun bench ->
      let spec = Option.get (Suite.find bench) in
      let program = (Spec.image spec).Image.program in
      let events = record_of spec "net" in
      let bytes = Event_log.encode ~program ~seed:1L events in
      let decoded = Event_log.decode bytes ~program ~seed:1L in
      check_true
        (Printf.sprintf "round trip (%s, %d events, %d bytes)" bench
           (Branch_stream.length events) (Bytes.length bytes))
        (Branch_stream.equal events decoded))
    [ "gzip"; "twolf"; "mcf" ]

let codec_file_round_trip () =
  let spec = Option.get (Suite.find "gzip") in
  let program = (Spec.image spec).Image.program in
  let events = record_of spec "net" in
  let path = Filename.temp_file "regionsel_events" ".revl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let size = Event_log.write_file ~path ~program ~seed:1L events in
      check_int "reported size is the file size" size
        (let ic = open_in_bin path in
         let n = in_channel_length ic in
         close_in ic;
         n);
      let decoded = Event_log.read_file ~path ~program ~seed:1L in
      check_true "file round trip" (Branch_stream.equal events decoded))

let expect_corruption what f =
  match f () with
  | (_ : Branch_stream.events) -> Alcotest.failf "%s: accepted instead of rejected" what
  | exception Persist.Hard_corruption _ -> ()
  | exception e ->
    Alcotest.failf "%s: raised %s instead of Hard_corruption" what (Printexc.to_string e)

let codec_rejects_corruption () =
  let spec = Option.get (Suite.find "gzip") in
  let program = (Spec.image spec).Image.program in
  let events = record_of spec "net" in
  let pristine = Event_log.encode ~program ~seed:1L events in
  let flip i bytes =
    let b = Bytes.copy bytes in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    b
  in
  expect_corruption "bad magic" (fun () ->
      Event_log.decode (flip 0 pristine) ~program ~seed:1L);
  expect_corruption "header bit flip" (fun () ->
      Event_log.decode (flip 9 pristine) ~program ~seed:1L);
  expect_corruption "payload bit flip" (fun () ->
      Event_log.decode (flip 40 pristine) ~program ~seed:1L);
  expect_corruption "truncation" (fun () ->
      Event_log.decode (Bytes.sub pristine 0 (Bytes.length pristine / 2)) ~program ~seed:1L);
  expect_corruption "empty file" (fun () ->
      Event_log.decode Bytes.empty ~program ~seed:1L);
  (* Identity pinning: same bytes, wrong seed or wrong program. *)
  expect_corruption "seed mismatch" (fun () ->
      Event_log.decode pristine ~program ~seed:2L);
  let other = (Spec.image (Option.get (Suite.find "twolf"))).Image.program in
  expect_corruption "program mismatch" (fun () ->
      Event_log.decode pristine ~program:other ~seed:1L)

(* A corrupt recording must never reach the engine: the CLI contract is
   exit-code 5, here the exception at decode time. *)
let replay_after_round_trip_is_identical () =
  let spec = Option.get (Suite.find "twolf") in
  let image = Spec.image spec in
  let program = image.Image.program in
  let policy = Option.get (Policies.find "lei") in
  let max_steps = budget spec in
  let events = Branch_stream.recorder () in
  let live = Simulator.run ~seed:1L ~record:events ~policy ~max_steps image in
  let decoded = Event_log.decode (Event_log.encode ~program ~seed:1L events) ~program ~seed:1L in
  let replayed = Simulator.run ~seed:1L ~replay:decoded ~policy ~max_steps image in
  Alcotest.(check string) "replay through the codec is bit-identical"
    (Run_metrics.to_json (Run_metrics.of_result live))
    (Run_metrics.to_json (Run_metrics.of_result replayed))

(* --- The format, pinned without reference to any encoder --------------- *)

module Program = Regionsel_isa.Program
module Block = Regionsel_isa.Block
module Terminator = Regionsel_isa.Terminator

(* [n] halting blocks of 3 instructions each: block [i] starts at [3i], so a
   successor code (block id + 1) never coincides with an address. *)
let halting_program =
  let memo = Hashtbl.create 8 in
  fun n ->
    match Hashtbl.find_opt memo n with
    | Some p -> p
    | None ->
      let p =
        Program.of_blocks_exn ~entry:0
          (List.init n (fun i -> Block.make ~start:(3 * i) ~size:3 ~term:Terminator.Halt))
      in
      Hashtbl.add memo n p;
      p

let of_list l =
  let ev = Branch_stream.recorder () in
  List.iter (fun (block_id, taken, next) -> Branch_stream.append_event ev ~block_id ~taken ~next) l;
  ev

let bound_to program ~capacity =
  let ev = Branch_stream.recorder ~capacity () in
  Branch_stream.bind ev (Branch_stream.layout program);
  ev

let hex b =
  Bytes.fold_left (fun acc c -> acc ^ Printf.sprintf "%02x" (Char.code c)) "" b

(* Three blocks: kb = 2, kn = 2, 5 bits per event, 20 bits of payload.
   Fields (block id | taken | successor code): 00 1 10, 01 0 11, 10 1 01,
   00 0 00 -> 0011 0010 | 1110 1010 | 0000 (pad 0000) = 32 ea 00.  The
   checksums are IEEE CRC32 values computed outside this code base. *)
let golden_bytes () =
  let program = halting_program 3 in
  let events = of_list [ (0, true, 3); (1, false, 6); (2, true, 0); (0, false, Addr.none) ] in
  let seed = 0x0102030405060708L in
  let file =
    "5245564c" ^ "00000001" ^ "00000003" ^ "05060708" ^ "01020304" ^ "00000004" ^ "00000000"
    ^ "4e27723f" ^ "00000014" ^ "32ea00" ^ "7c3ff38a"
  in
  Alcotest.(check string) "file bytes" file (hex (Event_log.encode ~program ~seed events));
  Alcotest.(check string) "batch bytes" ("00000004" ^ "00000014" ^ "32ea00" ^ "7c3ff38a")
    (hex (Event_log.encode_batch ~program events ~pos:0 ~len:4));
  (* Events 1-2 alone: 01011 10101 -> 0101 1101 | 01(00 0000) = 5d 40. *)
  Alcotest.(check string) "batch slice bytes" ("00000002" ^ "0000000a" ^ "5d40" ^ "38107076")
    (hex (Event_log.encode_batch ~program events ~pos:1 ~len:2));
  let of_hex s =
    Bytes.init (String.length s / 2) (fun i ->
        Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))
  in
  check_true "golden file decodes"
    (Branch_stream.equal events (Event_log.decode (of_hex file) ~program ~seed))

let qcheck_codec_round_trip =
  let gen =
    QCheck.Gen.(
      oneofl [ 1; 2; 3; 127; 128; 129; 4096; 32767; 32768; 32769 ] >>= fun n_blocks ->
      list_size (int_range 0 60) (triple (int_bound (n_blocks - 1)) bool (int_bound n_blocks))
      >>= fun evs -> map (fun cut -> (n_blocks, evs, cut)) (int_bound 60))
  in
  let print (n, evs, cut) = Printf.sprintf "%d blocks, %d events, cut %d" n (List.length evs) cut in
  QCheck.Test.make ~name:"event-log round trip over block counts" ~count:300
    (QCheck.make ~print gen)
    (fun (n_blocks, evs, cut) ->
      let program = halting_program n_blocks in
      (* successor choice 0 is a halt, c > 0 is block c - 1 *)
      let events =
        of_list (List.map (fun (b, t, c) -> (b, t, if c = 0 then Addr.none else 3 * (c - 1))) evs)
      in
      let n = Branch_stream.length events in
      let cut = min cut n in
      let file_ok =
        Branch_stream.equal events
          (Event_log.decode (Event_log.encode ~program ~seed:9L events) ~program ~seed:9L)
      in
      (* Two batches appended after an existing event rebuild the same stream. *)
      let into = bound_to program ~capacity:1 in
      Branch_stream.append_event into ~block_id:0 ~taken:false ~next:Addr.none;
      let expected = of_list [ (0, false, Addr.none) ] in
      iter
        (fun ~block_id ~taken ~next -> Branch_stream.append_event expected ~block_id ~taken ~next)
        events;
      let append ~pos ~len =
        Event_log.decode_batch (Event_log.encode_batch ~program events ~pos ~len) ~program ~into
      in
      let a = append ~pos:0 ~len:cut in
      let b = append ~pos:cut ~len:(n - cut) in
      file_ok && a = cut && b = n - cut && Branch_stream.equal expected into)

(* A forged 64-bit event count that wraps: 1000 + 2^62 is negative as an
   OCaml int and times 16 bits per event it equals the real payload size.
   It must be refused, not decoded as an empty recording. *)
let forged_count_rejected () =
  let program = halting_program 128 in
  let events = of_list (List.init 1000 (fun i -> (i mod 128, i land 1 = 0, 3 * (i mod 7)))) in
  let pristine = Event_log.encode ~program ~seed:1L events in
  let forge hi =
    let b = Bytes.copy pristine in
    Bytes.set_int32_be b 24 (Int32.of_int hi);
    Bytes.set_int32_be b 28 (Int32.of_int (Persist.crc32 b ~pos:0 ~len:28));
    b
  in
  check_true "re-sealing an unchanged count still decodes"
    (Branch_stream.equal events (Event_log.decode (forge 0) ~program ~seed:1L));
  expect_corruption "event count 1000 + 2^62" (fun () ->
      Event_log.decode (forge 0x40000000) ~program ~seed:1L)

(* Write a [width]-bit field at an absolute bit offset, MSB first. *)
let set_field bytes ~bit ~width v =
  for j = 0 to width - 1 do
    let b = bit + j in
    let mask = 0x80 lsr (b land 7) in
    let byte = Char.code (Bytes.get bytes (b lsr 3)) in
    let on = (v lsr (width - 1 - j)) land 1 = 1 in
    Bytes.set bytes (b lsr 3) (Char.chr (if on then byte lor mask else byte land lnot mask))
  done

(* A batch whose checksum holds but whose last event is out of range must
   raise and leave [into] exactly as it was: five blocks give 3-bit ids
   (5-7 invalid) and 3-bit successor codes (6-7 invalid), 7 bits per event. *)
let decode_batch_all_or_nothing () =
  let program = halting_program 5 in
  let events =
    of_list
      (List.init 10 (fun i -> (i mod 5, i mod 3 = 0, if i = 4 then Addr.none else 3 * (i mod 5))))
  in
  let body = Event_log.encode_batch ~program events ~pos:0 ~len:10 in
  let last = 64 + (9 * 7) in
  let plen = (70 + 7) / 8 in
  List.iter
    (fun (what, bit, v) ->
      let b = Bytes.copy body in
      set_field b ~bit ~width:3 v;
      Bytes.set_int32_be b (8 + plen) (Int32.of_int (Persist.crc32 b ~pos:8 ~len:plen));
      let into = bound_to program ~capacity:4 in
      List.iter
        (fun (block_id, taken, next) -> Branch_stream.append_event into ~block_id ~taken ~next)
        [ (1, true, 0); (2, false, Addr.none); (4, true, 9) ];
      let before = of_list [ (1, true, 0); (2, false, Addr.none); (4, true, 9) ] in
      (match Event_log.decode_batch b ~program ~into with
      | n -> Alcotest.failf "%s: accepted %d events" what n
      | exception Persist.Hard_corruption _ -> ());
      check_int (what ^ ": length unchanged") 3 (Branch_stream.length into);
      check_true (what ^ ": contents unchanged") (Branch_stream.equal before into);
      (* and the recording still takes appends afterwards *)
      ignore (Event_log.decode_batch body ~program ~into);
      check_int (what ^ ": a valid batch still appends") 13 (Branch_stream.length into))
    [ ("block id 5", last, 5); ("block id 7", last, 7); ("successor code 6", last + 4, 6);
      ("successor code 7", last + 4, 7) ]

(* A frame-like buffer around [body]: [off] junk bytes, the body, then
   the first [tail] bytes of [next] behind a frame header, as a
   connection buffer holds a batch with the next frame arriving. *)
let embed ~off body ~next ~tail =
  let tail = min tail (Bytes.length next) in
  let b = Bytes.make (off + Bytes.length body + 5 + tail) '\xa5' in
  Bytes.blit body 0 b off (Bytes.length body);
  let h = off + Bytes.length body in
  Bytes.set_int32_be b h (Int32.of_int (Bytes.length next + 1));
  Bytes.set b (h + 4) '\002';
  Bytes.blit next 0 b (h + 5) tail;
  b

(* Every bench's recording, cut at random points into wire batches, each
   decoded at a nonzero offset of a larger buffer that also holds the
   start of the next frame, rebuilds the source; half the batches go
   through a layout kept across calls. *)
let batches_at_an_offset_rebuild_the_source () =
  List.iteri
    (fun k (spec : Spec.t) ->
      let name = spec.Spec.name in
      let program = (Spec.image spec).Image.program in
      let layout = Branch_stream.layout program in
      let events = record_of spec "net" in
      let n = Branch_stream.length events in
      let rng = Random.State.make [| 25; k |] in
      let cuts =
        List.sort_uniq compare
          (0 :: n :: List.init (1 + Random.State.int rng 8) (fun _ -> Random.State.int rng (n + 1)))
      in
      let rec segments = function
        | a :: (b :: _ as rest) -> (a, b - a) :: segments rest
        | _ -> []
      in
      let bodies =
        List.map
          (fun (pos, len) -> Event_log.encode_batch ~program events ~pos ~len)
          (segments cuts)
      in
      let into = Branch_stream.recorder ~capacity:16 () in
      let rec go = function
        | [] -> ()
        | body :: rest ->
          let next = match rest with next :: _ -> next | [] -> Bytes.make 12 '\x5a' in
          let off = 1 + Random.State.int rng 16 in
          let buf = embed ~off body ~next ~tail:(1 + Random.State.int rng 64) in
          let before = Branch_stream.length into in
          let len = Bytes.length body in
          let got =
            if Random.State.bool rng then
              Event_log.decode_batch ~layout ~pos:off ~len buf ~program ~into
            else Event_log.decode_batch ~pos:off ~len buf ~program ~into
          in
          check_int (name ^ ": count") (Branch_stream.length into - before) got;
          go rest
      in
      go bodies;
      check_true (name ^ ": rebuilt") (Branch_stream.equal events into))
    Suite.all

(* A batch whose checksum holds but whose fields name a block id or a
   successor code outside the program, at any position, decoded at an
   offset into an ingest buffer that has released a prefix: it raises,
   and the buffer keeps its length, its released prefix and every
   retained event.  With both faults in one batch the detail names the
   block id.  gcc's 654 blocks leave block ids 654-1023 and successor
   codes 655-1023 free to forge, in 10 bits each. *)
let forged_batch_leaves_the_ingest_buffer () =
  let spec = Option.get (Suite.find "gcc") in
  let program = (Spec.image spec).Image.program in
  let n_blocks = Program.n_blocks program in
  let src = record_of spec "lei" in
  let width = Event_log.event_bits program in
  check_int "gcc's field width" 21 width;
  let ingest () =
    let ev = bound_to program ~capacity:2048 in
    for i = 0 to 1999 do
      Branch_stream.append_event ev ~block_id:(Branch_stream.get_block_id src i)
        ~taken:(Branch_stream.get_taken src i) ~next:(Branch_stream.get_next src i)
    done;
    Branch_stream.release ev 1500;
    ev
  in
  let len = 700 in
  let body = Event_log.encode_batch ~program src ~pos:2000 ~len in
  let plen = ((len * width) + 7) / 8 in
  let rng = Random.State.make [| 25 |] in
  let forge faults =
    let b = Bytes.copy body in
    List.iter
      (fun (j, block) ->
        if block then set_field b ~bit:(64 + (j * width)) ~width:10 (n_blocks + Random.State.int rng (1024 - n_blocks))
        else
          set_field b ~bit:(64 + (j * width) + 11) ~width:10
            (n_blocks + 1 + Random.State.int rng (1023 - n_blocks)))
      faults;
    Bytes.set_int32_be b (8 + plen) (Int32.of_int (Persist.crc32 b ~pos:8 ~len:plen));
    b
  in
  let positions = [ 0; 1; len / 2; len - 2; len - 1 ] @ List.init 6 (fun _ -> Random.State.int rng len) in
  let cases =
    List.concat_map
      (fun j ->
        [ (Printf.sprintf "block id at %d" j, [ (j, true) ], "block id");
          (Printf.sprintf "successor code at %d" j, [ (j, false) ], "successor code") ])
      positions
    @ List.map
        (fun (a, b) ->
          (Printf.sprintf "code at %d, block id at %d" a b, [ (a, false); (b, true) ], "block id"))
        [ (0, len - 1); (len - 1, 0); (3, 3) ]
  in
  List.iter
    (fun (what, faults, named) ->
      let forged = forge faults in
      let off = 1 + Random.State.int rng 9 in
      let buf = embed ~off forged ~next:body ~tail:(Random.State.int rng 40) in
      let into = ingest () and before = ingest () in
      (match
         Event_log.decode_batch ~pos:off ~len:(Bytes.length forged) buf ~program ~into
       with
      | n -> Alcotest.failf "%s: accepted %d events" what n
      | exception Persist.Hard_corruption detail ->
        let rec has i =
          i + String.length named <= String.length detail
          && (String.sub detail i (String.length named) = named || has (i + 1))
        in
        if not (has 0) then Alcotest.failf "%s: detail %S does not name the %s" what detail named);
      check_int (what ^ ": length unchanged") 2000 (Branch_stream.length into);
      check_int (what ^ ": released unchanged") 1500 (Branch_stream.released into);
      check_true (what ^ ": every retained event unchanged") (Branch_stream.equal before into);
      check_int (what ^ ": a valid batch still appends") len
        (Event_log.decode_batch ~pos:off ~len:(Bytes.length body)
           (embed ~off body ~next:body ~tail:8)
           ~program ~into);
      check_int (what ^ ": appended") 2700 (Branch_stream.length into);
      check_true (what ^ ": the valid batch holds its events")
        (Bytes.equal body (Event_log.encode_batch ~program into ~pos:2000 ~len)))
    cases

(* Release and recycling, on a recording bound to [synth_program].
   Event [j] of a generated sequence is a pure function of [j]. *)
let synth j =
  (j * 7 mod 1000, j mod 3 = 0, if j mod 11 = 0 then Addr.none else 3 * (j * 13 mod 1000))

let append_synth ev j =
  let block_id, taken, next = synth j in
  Branch_stream.append_event ev ~block_id ~taken ~next

let pull_opt stream =
  let s = Interp.make_step () in
  if Branch_stream.next_into stream s then Some (s.Interp.block_id, s.Interp.taken, s.Interp.next)
  else None

let expect_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: no Invalid_argument" what
  | exception Invalid_argument _ -> ()

(* 1000 blocks: 21-bit fields, as gcc's. *)
let synth_program () = halting_program 1000

(* The daemon's ingest buffer against an unreleased word-slot model of
   the same appends.  A program's events are [synth] folded into its
   block count.  [Batch] appends a valid wire batch, [Forged] one whose
   checksum holds but whose field [j mod k] names a block past the
   program (refused: the buffer keeps its length, release point and
   retained bytes), [Append] appends by hand, [Consume] pulls from a
   replay of each, [Release] releases what the buffer's reader consumed,
   and [Rebind] recycles the buffer and binds it to the next program,
   whose fields have another width, starting a new model. *)
type ingest_op =
  | Batch of int
  | Forged of int * int
  | Append of int
  | Consume of int
  | Release of int
  | Rebind

let show_op = function
  | Batch k -> Printf.sprintf "B%d" k
  | Forged (k, j) -> Printf.sprintf "F%d.%d" k j
  | Append k -> Printf.sprintf "A%d" k
  | Consume k -> Printf.sprintf "C%d" k
  | Release k -> Printf.sprintf "R%d" k
  | Rebind -> "X"

let ingest_ops ~rebind =
  QCheck.Gen.(
    list_size (int_range 0 60)
      (frequency
         ([ (3, map (fun k -> Batch k) (int_range 0 40));
            (1, map2 (fun k j -> Forged (k, j)) (int_range 1 40) nat);
            (2, map (fun k -> Append k) (int_range 0 20));
            (3, map (fun k -> Consume k) (int_range 0 60));
            (2, map (fun k -> Release k) (int_range 0 60)) ]
         @ if rebind then [ (1, return Rebind) ] else [])))

let ingest_matches_model ops =
  let programs = [| synth_program (); halting_program 5 |] in
  let layouts = Array.map Branch_stream.layout programs in
  let w_max = Array.fold_left (fun m l -> max m (Branch_stream.field_bits l)) 0 layouts in
  let pi = ref 0 in
  let event j =
    let n = Program.n_blocks programs.(!pi) in
    let b, t, next = synth j in
    (b mod n, t, if next = Addr.none then next else 3 * (next / 3 mod n))
  in
  let buf = Branch_stream.recorder ~capacity:4 () in
  Branch_stream.bind buf layouts.(0);
  let model = ref (Branch_stream.recorder ()) in
  let rb = ref (Branch_stream.of_events buf) and rm = ref (Branch_stream.of_events !model) in
  let consumed = ref 0 and most = ref 0 and ok = ref true in
  let fail what = if !ok then (Printf.eprintf "ingest model: %s\n%!" what; ok := false) in
  let add_model k =
    let m = Branch_stream.length !model in
    for j = m to m + k - 1 do
      let block_id, taken, next = event j in
      Branch_stream.append_event !model ~block_id ~taken ~next
    done
  in
  let window ev =
    let r = Branch_stream.released buf in
    Event_log.encode_batch ~program:programs.(!pi) ev ~pos:r ~len:(Branch_stream.length ev - r)
  in
  let check_state what =
    let r = Branch_stream.released buf and n = Branch_stream.length buf in
    if n <> Branch_stream.length !model then fail (what ^ ": length");
    if not (Bytes.equal (window buf) (window !model)) then fail (what ^ ": retained bytes");
    for i = r to n - 1 do
      if Branch_stream.get_block_id buf i <> Branch_stream.get_block_id !model i
         || Branch_stream.get_taken buf i <> Branch_stream.get_taken !model i
         || Branch_stream.get_next buf i <> Branch_stream.get_next !model i
      then fail (what ^ ": retained event")
    done;
    let width = Branch_stream.field_bits layouts.(!pi) in
    most := max !most ((n - r) * width);
    if Branch_stream.capacity buf * width > 2 * (!most + (8 * w_max)) then
      fail (Printf.sprintf "%s: capacity %d fields of %d bits, most held %d bits" what
              (Branch_stream.capacity buf) width !most)
  in
  List.iter
    (fun op ->
      let program = programs.(!pi) in
      match op with
      | Batch k ->
        let m = Branch_stream.length !model in
        add_model k;
        let body = Event_log.encode_batch ~program !model ~pos:m ~len:k in
        ignore (Event_log.decode_batch ~layout:layouts.(!pi) body ~program ~into:buf);
        check_state (show_op op)
      | Forged (k, j) ->
        let src = Branch_stream.recorder () in
        let m = Branch_stream.length !model in
        for i = m to m + k - 1 do
          let block_id, taken, next = event i in
          Branch_stream.append_event src ~block_id ~taken ~next
        done;
        let body = Event_log.encode_batch ~program src ~pos:0 ~len:k in
        let width = Branch_stream.field_bits layouts.(!pi) in
        let plen = ((k * width) + 7) / 8 in
        let rec bits v = if v <= 1 then 1 else 1 + bits (v lsr 1) in
        let kb = bits (Program.n_blocks program - 1) in
        set_field body ~bit:(64 + (j mod k * width)) ~width:kb (Program.n_blocks program);
        Bytes.set_int32_be body (8 + plen) (Int32.of_int (Persist.crc32 body ~pos:8 ~len:plen));
        let before = (Branch_stream.length buf, Branch_stream.released buf) in
        (match Event_log.decode_batch body ~program ~into:buf with
        | _ -> fail (show_op op ^ ": accepted")
        | exception Persist.Hard_corruption _ -> ());
        if before <> (Branch_stream.length buf, Branch_stream.released buf) then
          fail (show_op op ^ ": length or release point moved");
        check_state (show_op op)
      | Append k ->
        let m = Branch_stream.length !model in
        add_model k;
        for j = m to m + k - 1 do
          let block_id, taken, next = event j in
          Branch_stream.append_event buf ~block_id ~taken ~next
        done;
        check_state (show_op op)
      | Consume k ->
        for _ = 1 to k do
          let x = pull_opt !rm in
          if x <> pull_opt !rb then fail (show_op op ^ ": replays differ");
          if Option.is_some x then incr consumed
        done
      | Release k ->
        Branch_stream.release buf (min k !consumed);
        check_state (show_op op)
      | Rebind ->
        pi := 1 - !pi;
        Branch_stream.recycle buf;
        Branch_stream.bind buf layouts.(!pi);
        expect_invalid "reader of the last session" (fun () -> pull_opt !rb);
        model := Branch_stream.recorder ();
        rb := Branch_stream.of_events buf;
        rm := Branch_stream.of_events !model;
        consumed := 0;
        check_state "rebind")
    ops;
  let rest = Branch_stream.length !model - !consumed in
  for _ = 0 to rest do
    if pull_opt !rm <> pull_opt !rb then fail "final replay differs"
  done;
  check_state "end";
  !ok

(* A recording that releases as its reader consumes must replay exactly
   what an unreleased recording of the same appends replays, on one
   program. *)
let qcheck_release_replays_the_same =
  QCheck.Test.make ~name:"released recording replays as an unreleased one" ~count:300
    (QCheck.make ~print:(QCheck.Print.list show_op) (ingest_ops ~rebind:false))
    ingest_matches_model

(* The same, with the buffer recycled and re-bound between two programs
   whose fields differ in width, as the daemon's pool does. *)
let qcheck_ingest_across_programs =
  QCheck.Test.make ~name:"pooled ingest buffer matches its model across programs" ~count:300
    (QCheck.make ~print:(QCheck.Print.list show_op) (ingest_ops ~rebind:true))
    ingest_matches_model

(* A reader is never handed storage a release took away: its next pull
   raises, and so does a stream or a getter that starts below the
   release.  A reader at or past the release is unaffected, also across
   the compaction that reuses the released bytes. *)
let reader_behind_release_raises () =
  let ev = bound_to (synth_program ()) ~capacity:16 in
  for j = 0 to 15 do append_synth ev j done;
  let behind = Branch_stream.of_events ev and ahead = Branch_stream.of_events ev in
  for _ = 1 to 3 do ignore (pull_opt behind) done;
  for _ = 1 to 11 do ignore (pull_opt ahead) done;
  Branch_stream.release ev 10;
  expect_invalid "reader behind the release" (fun () -> pull_opt behind);
  expect_invalid "fresh reader from position 0" (fun () -> pull_opt (Branch_stream.of_events ev));
  expect_invalid "getter below the release" (fun () -> Branch_stream.get_block_id ev 9);
  expect_invalid "release past the length" (fun () -> Branch_stream.release ev 17);
  for j = 16 to 23 do append_synth ev j done;
  check_int "compacted, not grown" 16 (Branch_stream.capacity ev);
  check_int "positions stay absolute" 24 (Branch_stream.length ev);
  check_int "getter at a retained position"
    (let b, _, _ = synth 23 in b)
    (Branch_stream.get_block_id ev 23);
  let rest = List.init 14 (fun _ -> pull_opt ahead) in
  check_true "reader ahead of the release reads on"
    (rest = List.init 13 (fun i -> Some (synth (11 + i))) @ [ None ]);
  check_int "the getters see the retained events" 14
    (let n = ref 0 in
     iter (fun ~block_id:_ ~taken:_ ~next:_ -> incr n) ev;
     !n)

(* A stream from before a recycle raises on its next pull, wherever its
   cursor was: it never reads the next session's events. *)
let reader_before_recycle_raises () =
  let ev = bound_to (synth_program ()) ~capacity:1024 in
  for j = 0 to 3 do append_synth ev j done;
  let mid = Branch_stream.of_events ev and done_ = Branch_stream.of_events ev in
  ignore (pull_opt mid);
  for _ = 1 to 5 do ignore (pull_opt done_) done;
  Branch_stream.release ev 1;
  Branch_stream.recycle ev;
  check_int "recycled length" 0 (Branch_stream.length ev);
  check_int "recycled release point" 0 (Branch_stream.released ev);
  for j = 100 to 109 do append_synth ev j done;
  expect_invalid "mid-stream reader" (fun () -> pull_opt mid);
  expect_invalid "reader that had seen the halt" (fun () -> pull_opt done_);
  check_true "a new reader replays the new session"
    (pull_opt (Branch_stream.of_events ev) = Some (synth 100))

(* The extreme values one word slot holds round-trip through an unbound
   recording's writer and readers; one past them raises and leaves the
   recording as it was. *)
let slot_limits () =
  let max_block = (1 lsl 31) - 1 and max_next = (1 lsl 30) - 2 in
  let legal =
    [ (max_block, true, max_next); (max_block, false, Addr.none); (0, true, max_next);
      (0, false, 0); (max_block, true, 0) ]
  in
  let ev = of_list legal in
  let stream = Branch_stream.of_events ev in
  List.iteri
    (fun i ((block_id, taken, next) as e) ->
      check_int "block id" block_id (Branch_stream.get_block_id ev i);
      check_true "taken" (Branch_stream.get_taken ev i = taken);
      check_int "next" next (Branch_stream.get_next ev i);
      check_true "replayed" (pull_opt stream = Some e))
    legal;
  check_true "replay ends" (pull_opt stream = None);
  let before = of_list legal in
  List.iter
    (fun (what, block_id, next) ->
      expect_invalid ("append_event: " ^ what) (fun () ->
          Branch_stream.append_event ev ~block_id ~taken:true ~next);
      check_int (what ^ ": length unchanged") (List.length legal) (Branch_stream.length ev);
      check_true (what ^ ": contents unchanged") (Branch_stream.equal before ev))
    [ ("block id 2^31", max_block + 1, 0); ("block id -1", -1, 0);
      ("successor 2^30 - 1", 0, max_next + 1); ("successor -2", 0, -2);
      ("successor max_int", 0, max_int) ]

(* One word per event: a recording sized to its events is its slots plus
   a few words of record. *)
let one_word_per_event () =
  let n = 100_000 in
  let ev = Branch_stream.recorder ~capacity:n () in
  for j = 0 to n - 1 do append_synth ev j done;
  let words = Obj.reachable_words (Obj.repr ev) in
  if words > n + 16 then Alcotest.failf "%d events take %d words" n words

(* --- Decoded recordings: a file's payload, bound to its program ----------- *)

let decode_of program events =
  Event_log.decode (Event_log.encode ~program ~seed:1L events) ~program ~seed:1L

(* A decoded recording is bound, sized to its events, and reads exactly
   as its source through every reader, on every bench; its memory beside
   its program is its payload and successor table, well under a word per
   event. *)
let decoded_reads_like_source () =
  List.iter
    (fun (spec : Spec.t) ->
      let name = spec.Spec.name in
      let program = (Spec.image spec).Image.program in
      let events = record_of spec "net" in
      let n = Branch_stream.length events in
      let decoded = decode_of program events in
      let cap = Branch_stream.capacity decoded in
      check_true (name ^ ": sized to its events") (cap >= n && cap < max n 16 + 8);
      check_true (name ^ ": equal") (Branch_stream.equal events decoded);
      check_true (name ^ ": equal, reversed") (Branch_stream.equal decoded events);
      let i = ref 0 in
      iter
        (fun ~block_id ~taken ~next ->
          if
            block_id <> Branch_stream.get_block_id events !i
            || taken <> Branch_stream.get_taken events !i
            || next <> Branch_stream.get_next events !i
            || block_id <> Branch_stream.get_block_id decoded !i
            || taken <> Branch_stream.get_taken decoded !i
            || next <> Branch_stream.get_next decoded !i
          then Alcotest.failf "%s: event %d differs between iter and the getters" name !i;
          incr i)
        decoded;
      check_int (name ^ ": iter visits every event") n !i;
      check_true (name ^ ": replay delivers the source")
        (let a = Branch_stream.of_events events and b = Branch_stream.of_events decoded in
         let rec go k = k > n || (pull_opt a = pull_opt b && go (k + 1)) in
         go 0);
      check_int (name ^ ": reading left its buffer") cap (Branch_stream.capacity decoded);
      let layout = Branch_stream.layout program in
      Branch_stream.bind (Branch_stream.recorder ~capacity:0 ()) layout;
      let words =
        Obj.reachable_words (Obj.repr decoded) - Obj.reachable_words (Obj.repr layout)
        + Regionsel_isa.Program.n_blocks program
      in
      if words > (n / 2) + Regionsel_isa.Program.n_blocks program + 64 then
        Alcotest.failf "%s: %d events take %d words packed" name n words)
    Suite.all

(* [k] pulls from each of two streams, which must deliver the same. *)
let pull_both what k a b =
  for _ = 1 to k do
    if pull_opt a <> pull_opt b then Alcotest.failf "%s: the streams diverged" what
  done

let same what p w = check_true (what ^ ": packed equals words") (Branch_stream.equal p w)

(* The recording owns a copy of the payload: overwriting the decoded bytes
   changes nothing it holds or replays. *)
let decoded_owns_its_payload () =
  let spec = Option.get (Suite.find "twolf") in
  let program = (Spec.image spec).Image.program in
  let src = record_of spec "lei" in
  let bytes = Event_log.encode ~program ~seed:1L src in
  let decoded = Event_log.decode bytes ~program ~seed:1L in
  Bytes.fill bytes 0 (Bytes.length bytes) '\xff';
  same "after the input was overwritten" decoded src;
  pull_both "replay after the input was overwritten" (Branch_stream.length src + 1)
    (Branch_stream.of_events decoded) (Branch_stream.of_events src)

(* Encoding a decoded recording writes the bytes its source encodes to,
   for whole files and for batch windows at every bit alignment: on every
   bench, over block counts whose fields take one put or two, and against
   a program whose block starts differ from the recording's (where a
   field names a start that program lacks, both refuse it). *)
let decoded_reencodes_like_source () =
  let windows n =
    List.concat_map
      (fun pos ->
        List.filter_map
          (fun len -> if len >= 0 && pos + len <= n then Some (pos, len) else None)
          [ 0; 1; 7; 31; 32; 33; 100; n - pos ])
      [ 0; 1; 3; 7; 13; 64 ]
  in
  let agree what ~program src decoded =
    let n = Branch_stream.length src in
    let encode ev = Event_log.encode ~program ~seed:1L ev in
    if not (Bytes.equal (encode src) (encode decoded)) then Alcotest.failf "%s: file bytes" what;
    List.iter
      (fun (pos, len) ->
        let batch ev = Event_log.encode_batch ~program ev ~pos ~len in
        if not (Bytes.equal (batch src) (batch decoded)) then
          Alcotest.failf "%s: batch bytes at %d+%d" what pos len)
      (windows n)
  in
  List.iter
    (fun (spec : Spec.t) ->
      let program = (Spec.image spec).Image.program in
      let events = record_of spec "net" in
      agree spec.Spec.name ~program events (decode_of program events))
    Suite.all;
  let rng = Random.State.make [| 24 |] in
  List.iter
    (fun n_blocks ->
      let program = halting_program n_blocks in
      let events =
        of_list
          (List.init 200 (fun _ ->
               let c = Random.State.int rng (n_blocks + 1) in
               ( Random.State.int rng n_blocks,
                 Random.State.bool rng,
                 if c = 0 then Addr.none else 3 * (c - 1) )))
      in
      agree (Printf.sprintf "%d blocks" n_blocks) ~program events (decode_of program events))
    [ 1; 3; 128; 4096; 32768; 32769 ];
  (* Four blocks at 0, 3, 6, 9, re-encoded against an equal program built
     apart, and against one whose last block starts at 12 instead. *)
  let program = halting_program 4 in
  let blocks starts =
    Program.of_blocks_exn ~entry:0
      (List.map (fun start -> Block.make ~start ~size:3 ~term:Terminator.Halt) starts)
  in
  let twin = blocks [ 0; 3; 6; 9 ] and moved = blocks [ 0; 3; 6; 12 ] in
  let without_9 = of_list [ (0, true, 3); (3, false, 6); (2, true, Addr.none); (1, false, 0) ] in
  let with_9 = of_list [ (0, true, 3); (3, false, 9) ] in
  agree "equal program built apart" ~program:twin without_9 (decode_of program without_9);
  agree "moved last block" ~program:moved without_9 (decode_of program without_9);
  let refused ev =
    match Event_log.encode ~program:moved ~seed:1L ev with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_true "source naming a start the program lacks is refused" (refused with_9);
  check_true "decoded naming a start the program lacks is refused"
    (refused (decode_of program with_9))


(* --- Bound recordings: the simulator records packed fields -------------- *)

type bound_op = Add of (int * bool * int) list | Pull of int

(* A recording bound to its program and a word recording fed the same
   appends, interleaved with pulls from a replay of each, are equal, replay
   the same events and encode to the same bytes, whole and in batches at
   any window; the bound one starts with room for at most 8 fields, so
   every case crosses at least one regrowth of its buffer.  The block
   counts give fields of one byte up to two puts' worth (33 bits). *)
let qcheck_bound_matches_words =
  let gen =
    QCheck.Gen.(
      oneofl [ 1; 2; 3; 127; 128; 129; 4096; 32768; 32769 ] >>= fun n_blocks ->
      let event = triple (int_bound (n_blocks - 1)) bool (int_bound n_blocks) in
      let op =
        oneof [ map (fun l -> Add l) (list_size (int_range 0 40) event); map (fun k -> Pull k) (int_bound 50) ]
      in
      quad (return n_blocks) (list_size (int_range 9 30) event) (list_size (int_range 0 12) op)
        (pair (int_bound 8) (list_size (int_range 1 8) (pair nat nat))))
  in
  let print (n, first, ops, (cap, _)) =
    Printf.sprintf "%d blocks, capacity %d, %d first, %d ops" n cap (List.length first)
      (List.length ops)
  in
  QCheck.Test.make ~name:"bound recording matches word slots" ~count:300
    (QCheck.make ~print gen)
    (fun (n_blocks, first, ops, (capacity, windows)) ->
      let program = halting_program n_blocks in
      let words = Branch_stream.recorder () and bound = bound_to program ~capacity in
      let cap0 = Branch_stream.capacity bound in
      let sw = Branch_stream.of_events words and sb = Branch_stream.of_events bound in
      let same = ref true in
      let add l =
        List.iter
          (fun (block_id, taken, c) ->
            let next = if c = 0 then Addr.none else 3 * (c - 1) in
            Branch_stream.append_event words ~block_id ~taken ~next;
            Branch_stream.append_event bound ~block_id ~taken ~next)
          l
      in
      let pull k = for _ = 1 to k do if pull_opt sw <> pull_opt sb then same := false done in
      add first;
      List.iter (function Add l -> add l | Pull k -> pull k) ops;
      let n = Branch_stream.length words in
      pull (n + 1);
      let fresh = ref true in
      let fw = Branch_stream.of_events words and fb = Branch_stream.of_events bound in
      for _ = 0 to n do if pull_opt fw <> pull_opt fb then fresh := false done;
      let encode ev = Event_log.encode ~program ~seed:5L ev in
      let batches_agree =
        List.for_all
          (fun (a, b) ->
            let pos = a mod (n + 1) in
            let len = b mod (n - pos + 1) in
            Bytes.equal
              (Event_log.encode_batch ~program words ~pos ~len)
              (Event_log.encode_batch ~program bound ~pos ~len))
          ((0, n) :: windows)
      in
      !same && !fresh
      && Branch_stream.length bound = n
      && Branch_stream.equal words bound
      && Branch_stream.equal bound words
      && Bytes.equal (encode words) (encode bound)
      && batches_agree
      && Branch_stream.capacity bound > cap0
      && cap0 <= 8)

(* [bind] binds only an empty recording: a stream opened before it
   raises instead of reading the old slots, and a non-empty recording is
   left as it was.  A bound recording refuses an event outside its
   program and a batch of another program's, and a recycled one takes
   another program.  An unbound recording takes only appends: release,
   recycle and a batch into it once it holds events raise.  Every refused
   write leaves the recording unchanged. *)
let bind_rules () =
  let program = halting_program 5 in
  let layout = Branch_stream.layout program in
  let ev = Branch_stream.recorder ~capacity:16 () in
  let early = Branch_stream.of_events ev in
  Branch_stream.bind ev layout;
  expect_invalid "stream opened before the binding" (fun () -> pull_opt early);
  check_int "bound capacity, in fields" 16 (Branch_stream.capacity ev);
  Branch_stream.append_event ev ~block_id:4 ~taken:true ~next:12;
  Branch_stream.bind ev (Branch_stream.layout (synth_program ()));
  check_int "a non-empty recording keeps its binding" 1 (Branch_stream.length ev);
  let before = of_list [ (4, true, 12) ] in
  let batch = Event_log.encode_batch ~program before ~pos:0 ~len:1 in
  let other = synth_program () in
  List.iter
    (fun (what, write) ->
      expect_invalid what write;
      check_true (what ^ ": unchanged") (Branch_stream.equal before ev))
    [ ("block id past the program", fun () -> Branch_stream.append_event ev ~block_id:5 ~taken:false ~next:0);
      ("negative block id", fun () -> Branch_stream.append_event ev ~block_id:(-1) ~taken:false ~next:0);
      ("successor inside a block", fun () -> Branch_stream.append_event ev ~block_id:0 ~taken:false ~next:4);
      ("successor past the program", fun () -> Branch_stream.append_event ev ~block_id:0 ~taken:false ~next:15);
      ("successor -2", fun () -> Branch_stream.append_event ev ~block_id:0 ~taken:false ~next:(-2));
      ( "another program's batch",
        fun () ->
          ignore
            (Event_log.decode_batch (Event_log.encode_batch ~program:other before ~pos:0 ~len:1)
               ~program:other ~into:ev) ) ];
  let step = Interp.make_step () in
  step.Interp.block_id <- 2;
  step.Interp.taken <- false;
  step.Interp.next <- Addr.none;
  Branch_stream.append ev step;
  check_true "append through a step record"
    (Branch_stream.equal (of_list [ (4, true, 12); (2, false, Addr.none) ]) ev);
  ignore (Event_log.decode_batch batch ~program ~into:ev);
  check_true "a batch appends"
    (Branch_stream.equal (of_list [ (4, true, 12); (2, false, Addr.none); (4, true, 12) ]) ev);
  Branch_stream.recycle ev;
  Branch_stream.bind ev (Branch_stream.layout other);
  append_synth ev 7;
  check_true "a recycled recording takes another program"
    (pull_opt (Branch_stream.of_events ev) = Some (synth 7));
  let words = of_list [ (4, true, 12) ] in
  List.iter
    (fun (what, write) ->
      expect_invalid what write;
      check_true (what ^ ": unchanged") (Branch_stream.equal before words))
    [ ("release of an unbound recording", fun () -> Branch_stream.release words 0);
      ("recycle of an unbound recording", fun () -> Branch_stream.recycle words);
      ( "batch into a non-empty unbound recording",
        fun () -> ignore (Event_log.decode_batch batch ~program ~into:words) ) ];
  Branch_stream.bind words layout;
  Branch_stream.append_event words ~block_id:9 ~taken:false ~next:1;
  check_int "a non-empty recording keeps word slots" 2 (Branch_stream.length words)

(* A recording the simulator makes is bound: a 50k-step gcc run holds its
   21-bit fields in at most ceil(21 / 8) = 3 bytes per event, twice over
   for the doubling buffer's slack, besides its layout, where word slots
   would take 8.  The layout's share is that of a layout bound alike. *)
let simulator_records_packed () =
  let spec = Option.get (Suite.find "gcc") in
  let image = Spec.image spec in
  let program = image.Image.program in
  let n = 50_000 in
  check_int "gcc's field width" 21 (Event_log.event_bits program);
  let ev = Branch_stream.recorder () in
  ignore (Simulator.run ~seed:1L ~record:ev ~policy:Policies.lei ~max_steps:n image);
  check_int "events" n (Branch_stream.length ev);
  let layout = Branch_stream.layout program in
  Branch_stream.bind (Branch_stream.recorder ~capacity:0 ()) layout;
  let bytes =
    8 * (Obj.reachable_words (Obj.repr ev) - Obj.reachable_words (Obj.repr layout))
  in
  if bytes > 2 * 3 * n then Alcotest.failf "%d events take %d bytes beside their layout" n bytes;
  check_true "capacity covers the events" (Branch_stream.capacity ev >= n)

(* The REVL bytes of recorded runs, pinned: four benches under the four
   paper policies at 30k steps, seed 1, as [regionsel_sim record
   --events-out] writes them.  The stream does not depend on the policy,
   so each bench's four digests agree. *)
let revl_bytes_match_golden () =
  let golden = In_channel.with_open_text "golden/revl.txt" In_channel.input_lines in
  let lines =
    List.concat_map
      (fun bench ->
        let spec = Option.get (Suite.find bench) in
        let image = Spec.image spec in
        List.map
          (fun policy ->
            let events = Branch_stream.recorder () in
            ignore
              (Simulator.run ~seed:1L ~record:events ~policy:(Option.get (Policies.find policy))
                 ~max_steps:30_000 image);
            let bytes = Event_log.encode ~program:image.Image.program ~seed:1L events in
            Printf.sprintf "%s %s 30000 %s" bench policy (Digest.to_hex (Digest.bytes bytes)))
          [ "net"; "lei"; "combined-net"; "combined-lei" ])
      [ "gzip"; "gcc"; "perlbmk"; "twolf" ]
  in
  check_int "one golden line per cell" (List.length golden) (List.length lines);
  List.iter2
    (fun line want ->
      if line <> want then Alcotest.failf "REVL bytes changed:\n  golden: %s\n  now:    %s" want line)
    lines golden

let suite =
  [
    case "recorder basics" recorder_basics;
    case "slot limits round-trip and guard" slot_limits;
    case "one word per recorded event" one_word_per_event;
    QCheck_alcotest.to_alcotest qcheck_release_replays_the_same;
    QCheck_alcotest.to_alcotest qcheck_ingest_across_programs;
    case "reader behind released storage raises" reader_behind_release_raises;
    case "reader from before a recycle raises" reader_before_recycle_raises;
    case "event-log golden bytes" golden_bytes;
    QCheck_alcotest.to_alcotest qcheck_codec_round_trip;
    case "event-log rejects a wrapped event count" forged_count_rejected;
    case "decode_batch is all-or-nothing" decode_batch_all_or_nothing;
    case "batches at an offset rebuild the source" batches_at_an_offset_rebuild_the_source;
    case "forged batch leaves the ingest buffer" forged_batch_leaves_the_ingest_buffer;
    case "producers agree (live vs recorded)" stream_producers_agree;
    case "matrix: live == replay, byte-identical" matrix_clean;
    case "matrix: live == replay under mixed faults" matrix_mixed_faults;
    case "event-log round trip" codec_round_trip;
    case "event-log file round trip" codec_file_round_trip;
    case "event-log rejects corruption and identity mismatch" codec_rejects_corruption;
    case "replay through the codec is bit-identical" replay_after_round_trip_is_identical;
    case "decoded recording reads like its source" decoded_reads_like_source;
    case "decoded recording owns its payload" decoded_owns_its_payload;
    case "decoded recording re-encodes like its source" decoded_reencodes_like_source;
    QCheck_alcotest.to_alcotest qcheck_bound_matches_words;
    case "bind binds only an empty recording" bind_rules;
    case "simulator records packed fields" simulator_records_packed;
    case "REVL bytes match the golden" revl_bytes_match_golden;
  ]
