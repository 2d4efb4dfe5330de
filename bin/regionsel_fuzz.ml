(* Differential fuzz driver: random workloads x policies x fault
   schedules, every run under the invariant sanitizer with a
   shadow-interpreter oracle and an instruction-accounting cross-check.
   The first failure is greedily shrunk to a minimal case and reported as
   a replayable command line. *)

module Check = Regionsel_check.Check
module Fuzz = Regionsel_check.Fuzz

let usage =
  "regionsel_fuzz [--seeds A-B | --seed N] [--steps N] [--shrink] [--out FILE] \
   [--snapshots [--corruptions N]] [--streams] [--frames [--cases N]]\n\
   regionsel_fuzz --seed N --genome G1,G2,... [--policy P] [--fault F] [--steps N]\n\
   regionsel_fuzz --self-test-break [--flight FILE]"

let parse_seeds s =
  match String.index_opt s '-' with
  | None -> (int_of_string s, int_of_string s)
  | Some i ->
    ( int_of_string (String.sub s 0 i),
      int_of_string (String.sub s (i + 1) (String.length s - i - 1)) )

let parse_genome s =
  String.split_on_char ',' s |> List.filter (fun g -> g <> "") |> List.map int_of_string

let report_failure ~shrink ~out ~flight (c, f) =
  Printf.printf "FAIL %s\n  %s\n%!" (Fuzz.cli_line c) (Check.violation_to_string f);
  let c, f = if shrink then Fuzz.shrink c f else (c, f) in
  if shrink then
    Printf.printf "shrunk to: %s\n  %s\n%!" (Fuzz.cli_line c) (Check.violation_to_string f);
  (match out with
  | "" -> ()
  | path ->
    let oc = open_out path in
    Printf.fprintf oc "%s\n# %s\n" (Fuzz.cli_line c) (Check.violation_to_string f);
    close_out oc;
    Printf.printf "reproducer written to %s\n%!" path);
  match flight with
  | "" -> ()
  | path ->
    let n = Fuzz.flight_dump c f ~path in
    Printf.printf "flight recorder: %d windows -> %s\n%!" n path

(* Daemon-framing axis: batter the wire protocol — truncated frames,
   bit flips, garbage splices, corrupt length prefixes — through the
   server's incremental dechunker and, for Events bodies, the batch
   event codec.  The contract under fuzz: every outcome is typed
   ([Proto.Protocol_error] / [Persist.Hard_corruption] / clean decode),
   never any other exception, and a pristine byte stream always decodes
   every frame that went in.  Every batch decodes into one long-lived
   ingest buffer, driven as the server drives it: bound to the batch's
   program (recycled and re-bound when that changes), read by a replay
   stream, and released up to what that stream consumed.  A refused
   batch must leave it as it was, and every batch it takes must read
   back as its source. *)
let run_frames_seed ~cases seed =
  let module P = Regionsel_serve.Proto in
  let module Sm = Regionsel_prng.Splitmix in
  let module Spec = Regionsel_workload.Spec in
  let module Suite = Regionsel_workload.Suite in
  let module Image = Regionsel_workload.Image in
  let module Program = Regionsel_isa.Program in
  let module Block = Regionsel_isa.Block in
  let module Addr = Regionsel_isa.Addr in
  let module Event_log = Regionsel_persist.Event_log in
  let module Persist = Regionsel_persist.Persist in
  let module Branch_stream = Regionsel_engine.Branch_stream in
  let rng = Sm.create ~seed:(Int64.add (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L) 1L) in
  (* Payload forgeries draw from their own generator, so the header
     forgery and frame cases of a seed are the same with them as without. *)
  let field_rng =
    Sm.create ~seed:(Int64.add (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L) 2L)
  in
  let spec = match Suite.find "gzip" with Some s -> s | None -> assert false in
  let image = Spec.image spec in
  let program = image.Image.program in
  let mk_recording rng program n =
    let n_blocks = Program.n_blocks program in
    let ev = Branch_stream.recorder () in
    for _ = 1 to n do
      let next =
        if Sm.bool rng then (Program.block_of_id program (Sm.int rng n_blocks)).Block.start
        else Addr.none
      in
      Branch_stream.append_event ev ~block_id:(Sm.int rng n_blocks) ~taken:(Sm.bool rng)
        ~next
    done;
    ev
  in
  let mk_events n = Event_log.encode_batch ~program (mk_recording rng program n) ~pos:0 ~len:n in
  (* Every bundled workload's block count makes an odd event width, and an
     odd width cannot turn a wrapped event count back into the payload
     size; a power-of-two block count (width 16 here) can. *)
  let program_128 =
    Program.of_blocks_exn ~entry:0
      (List.init 128 (fun i ->
           Block.make ~start:(3 * i) ~size:3 ~term:Regionsel_isa.Terminator.Halt))
  in
  let valid_msg () =
    match Sm.int rng 8 with
    | 0 ->
      P.Hello
        { h_tenant = "t"; h_bench = "gzip"; h_policy = "net"; h_seed = 7L;
          h_max_steps = Sm.int rng 100000 }
    | 1 -> P.Events (mk_events (1 + Sm.int rng 200))
    | 2 -> P.Fin
    | 3 -> P.Ctrl "status"
    | 4 -> P.Welcome { resume_step = Sm.int rng 100000; session = "s" }
    | 5 -> P.Reject { code = P.Bad_frame; detail = "detail" }
    | 6 -> P.Result "{}"
    | _ -> P.Data "body"
  in
  let n_ok = ref 0 and n_rejected = ref 0 and n_forged = ref 0 in
  let failure = ref None in
  let fail msg = if !failure = None then failure := Some msg in
  (* The ingest buffer and its draws, from a third generator so the cases
     of a seed are the same with it as without.  [src] holds every event
     of the buffer's session, unreleased: the reference it must match. *)
  let ingest_rng =
    Sm.create ~seed:(Int64.add (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L) 3L)
  in
  let ingest = Branch_stream.recorder () in
  let ingest_program = ref program in
  Branch_stream.bind ingest (Branch_stream.layout program);
  let src = ref (Branch_stream.recorder ()) in
  let reader = ref (Branch_stream.of_events ingest) in
  let consumed = ref 0 in
  let step = Regionsel_engine.Interp.make_step () in
  (* Before a batch of [p]: re-bind the buffer if [p] is another program,
     then let the reader consume a few events, each checked against the
     source, and release them. *)
  let ingest_for p =
    if p != !ingest_program then begin
      Branch_stream.recycle ingest;
      Branch_stream.bind ingest (Branch_stream.layout p);
      ingest_program := p;
      src := Branch_stream.recorder ();
      reader := Branch_stream.of_events ingest;
      consumed := 0
    end;
    let k = Sm.int ingest_rng 64 in
    let pulled = ref 0 in
    while !pulled < k && Branch_stream.next_into !reader step do
      let i = !consumed in
      if step.Regionsel_engine.Interp.block_id <> Branch_stream.get_block_id !src i
         || step.Regionsel_engine.Interp.taken <> Branch_stream.get_taken !src i
         || step.Regionsel_engine.Interp.next <> Branch_stream.get_next !src i
      then fail (Printf.sprintf "ingest buffer replayed event %d unlike its source" i);
      incr consumed;
      incr pulled
    done;
    Branch_stream.release ingest !consumed
  in
  (* The buffer's state as a reader sees it: length, release point, and
     the retained events as their wire batch. *)
  let ingest_state () =
    let r = Branch_stream.released ingest and n = Branch_stream.length ingest in
    (n, r, Event_log.encode_batch ~program:!ingest_program ingest ~pos:r ~len:(n - r))
  in
  (* Decode a batch body into the buffer.  A refusal re-raises once the
     buffer is checked unchanged; an accepted batch of [n] events must be
     the events [ev] holds from [pos]. *)
  let ingest_decode what ?(pos = 0) ?len bytes ~program ~ev ~ev_pos =
    let before = ingest_state () in
    match Event_log.decode_batch ~pos ?len bytes ~program ~into:ingest with
    | n ->
      let m = Branch_stream.length !src in
      for i = ev_pos to ev_pos + n - 1 do
        Branch_stream.append_event !src ~block_id:(Branch_stream.get_block_id ev i)
          ~taken:(Branch_stream.get_taken ev i) ~next:(Branch_stream.get_next ev i)
      done;
      let window e = Event_log.encode_batch ~program e ~pos:m ~len:n in
      if not (Bytes.equal (window ingest) (window !src)) then
        fail (what ^ ": the ingest buffer does not read back the batch it took");
      n
    | exception (Persist.Hard_corruption _ as e) ->
      let n, r, b = ingest_state () and n0, r0, b0 = before in
      if n <> n0 || r <> r0 || not (Bytes.equal b b0) then
        fail (what ^ ": a refused batch changed the ingest buffer");
      raise e
  in
  (* Header forgery: rewrite one count or shape field of a REVL file
     (block count, event count low or high word, payload bit count) or of a
     wire batch (event count, bit count) and re-seal the file's header
     checksum, so only the decoder's own consistency checks stand between
     the forgery and the engine.  The outcome must be a typed reject or
     exactly the encoded events. *)
  let forgery_case i =
    let seed = 7L in
    let program = if Sm.bool rng then program else program_128 in
    let ev = mk_recording rng program (Sm.int rng 300) in
    let n = Branch_stream.length ev in
    let file = Sm.bool rng in
    let bytes, fields =
      if file then (Event_log.encode ~program ~seed ev, [ 8; 20; 24; 32 ])
      else (Event_log.encode_batch ~program ev ~pos:0 ~len:n, [ 0; 4 ])
    in
    let off = List.nth fields (Sm.int rng (List.length fields)) in
    let old = Int32.to_int (Bytes.get_int32_be bytes off) land 0xFFFFFFFF in
    let forged =
      match Sm.int rng 4 with
      | 0 -> (Sm.bits30 rng lsl 2) lor Sm.int rng 4 (* any u32 *)
      | 1 -> old lxor (1 lsl Sm.int rng 32)
      | 2 ->
        (* 2^27 .. 2^30 in the high count word: count * width wraps back to
           the payload size whenever the width is even *)
        1 lsl (27 + Sm.int rng 4)
      | _ -> 0xFFFFFFFF
    in
    Bytes.set_int32_be bytes off (Int32.of_int forged);
    if file then
      Bytes.set_int32_be bytes 28 (Int32.of_int (Persist.crc32 bytes ~pos:0 ~len:28));
    match
      if file then Event_log.decode bytes ~program ~seed
      else begin
        ingest_for program;
        let m = Branch_stream.length ingest in
        let pristine = Event_log.encode_batch ~program ev ~pos:0 ~len:n in
        match ingest_decode "header forgery" bytes ~program ~ev ~ev_pos:0 with
        | got ->
          (* what it took, as a recording of its own, to compare with [ev] *)
          let taken = Branch_stream.recorder () in
          for i = m to m + got - 1 do
            Branch_stream.append_event taken ~block_id:(Branch_stream.get_block_id ingest i)
              ~taken:(Branch_stream.get_taken ingest i) ~next:(Branch_stream.get_next ingest i)
          done;
          taken
        | exception e ->
          ignore (ingest_decode "batch after a refusal" pristine ~program ~ev ~ev_pos:0);
          raise e
      end
    with
    | exception Persist.Hard_corruption _ -> incr n_rejected
    | decoded when Branch_stream.equal decoded ev -> incr n_ok
    | decoded ->
      failure :=
        Some
          (Printf.sprintf
             "case %d: %s field at byte %d forged %#x -> %#x decoded to %d events, not the %d \
              encoded"
             i (if file then "file" else "batch") off old forged (Branch_stream.length decoded) n)
  in
  (* Payload forgery: rewrite one event's field of a REVL file or wire
     batch to a block id or successor code outside the program, and
     re-seal the payload checksum, so only the decoder's field checks
     stand between the forgery and the engine.  Decode must raise
     [Hard_corruption]: a recording handed back at all would reach the
     engine.  A field is [kb] bits of block id, the taken bit and [kn]
     bits of successor code (0 = halt, c = block c - 1); 128 blocks leave
     no spare block id, so there only the code is forged (and a block
     count of 2^k - 1 leaves no spare code). *)
  let field_forgery_case i =
    let seed = 7L in
    let program = if Sm.bool field_rng then program else program_128 in
    let n_blocks = Program.n_blocks program in
    let rec bits v = if v <= 1 then 1 else 1 + bits (v lsr 1) in
    let kb = bits (n_blocks - 1) and kn = bits n_blocks in
    let width = Event_log.event_bits program in
    assert (width = kb + 1 + kn);
    let ev = mk_recording field_rng program (1 + Sm.int field_rng 300) in
    let n = Branch_stream.length ev in
    let file = Sm.bool field_rng in
    let bytes, at =
      if file then (Event_log.encode ~program ~seed ev, 36)
      else (Event_log.encode_batch ~program ev ~pos:0 ~len:n, 8)
    in
    let pristine = Bytes.copy bytes in
    let j = Sm.int field_rng n in
    let can_code = n_blocks + 1 < 1 lsl kn in
    let forge_block = n_blocks < 1 lsl kb && ((not can_code) || Sm.bool field_rng) in
    let bit, k, v =
      if forge_block then (0, kb, n_blocks + Sm.int field_rng ((1 lsl kb) - n_blocks))
      else (kb + 1, kn, n_blocks + 1 + Sm.int field_rng ((1 lsl kn) - n_blocks - 1))
    in
    let bit = (8 * at) + (j * width) + bit in
    for b = 0 to k - 1 do
      let p = (bit + b) lsr 3 and m = 0x80 lsr ((bit + b) land 7) in
      let byte = Char.code (Bytes.get bytes p) in
      let on = (v lsr (k - 1 - b)) land 1 = 1 in
      Bytes.set bytes p (Char.chr (if on then byte lor m else byte land lnot m))
    done;
    let plen = ((n * width) + 7) / 8 in
    Bytes.set_int32_be bytes (at + plen) (Int32.of_int (Persist.crc32 bytes ~pos:at ~len:plen));
    match
      if file then ignore (Event_log.decode bytes ~program ~seed)
      else begin
        ingest_for program;
        match ingest_decode "payload forgery" bytes ~program ~ev ~ev_pos:0 with
        | _ -> ()
        | exception e ->
          ignore (ingest_decode "batch after a refusal" pristine ~program ~ev ~ev_pos:0);
          raise e
      end
    with
    | exception Persist.Hard_corruption _ -> incr n_forged
    | () ->
      failure :=
        Some
          (Printf.sprintf
             "case %d: %s with event %d of %d forged to %s %d (%d blocks) decoded instead of \
              being refused"
             i (if file then "file" else "batch") j n
             (if forge_block then "block id" else "successor code")
             v n_blocks)
  in
  let frame_case i =
    let n_msgs = 1 + Sm.int rng 3 in
    let buf = Buffer.create 256 in
    for _ = 1 to n_msgs do
      Buffer.add_bytes buf (P.encode (valid_msg ()))
    done;
    let data = Buffer.to_bytes buf in
    let mutation = Sm.int rng 4 in
    let data =
      match mutation with
      | 0 -> data (* pristine: must decode every frame *)
      | 1 ->
        (* truncate mid-stream *)
        Bytes.sub data 0 (1 + Sm.int rng (Bytes.length data - 1))
      | 2 ->
        (* flip one bit *)
        let j = Sm.int rng (Bytes.length data) in
        Bytes.set data j
          (Char.chr (Char.code (Bytes.get data j) lxor (1 lsl Sm.int rng 8)));
        data
      | _ ->
        (* splice trailing garbage *)
        Bytes.cat data (Bytes.init (1 + Sm.int rng 32) (fun _ -> Char.chr (Sm.int rng 256)))
    in
    (* The server's own entry: bytes land in the buffer through [fill],
       frames come out of [next_frame] and an Events body is decoded
       where it lies.  A twin fed the same chunks through [feed] and
       drained with [next] must yield the same frames and fail alike. *)
    let dech = P.Dechunker.create () and twin = P.Dechunker.create () in
    let decoded = ref 0 in
    let disagree what = failwith ("next_frame and next disagree: " ^ what) in
    let outcome =
      try
        let pos = ref 0 in
        while !pos < Bytes.length data do
          let len = min (1 + Sm.int rng 97) (Bytes.length data - !pos) in
          ignore
            (P.Dechunker.fill dech ~max:len (fun buf at _ ->
                 Bytes.blit data !pos buf at len;
                 len));
          P.Dechunker.feed twin data ~pos:!pos ~len;
          pos := !pos + len;
          let draining = ref true in
          while !draining do
            match P.Dechunker.next_frame dech with
            | exception (P.Protocol_error _ as e) -> (
              match P.Dechunker.next twin with
              | exception P.Protocol_error _ -> raise e
              | _ -> disagree "only next_frame raised")
            | frame -> (
              match (frame, P.Dechunker.next twin) with
              | None, None -> draining := false
              | Some (P.Dechunker.Events_at { buf; pos; len }), Some (P.Events body) ->
                incr decoded;
                if not (Bytes.equal (Bytes.sub buf pos len) body) then disagree "events body";
                (* The body decoded on its own is the source the ingest
                   buffer must read back, and a body refused on its own
                   the buffer must refuse too. *)
                ingest_for program;
                let ev = Branch_stream.recorder () in
                let alone =
                  match Event_log.decode_batch body ~program ~into:ev with
                  | _ -> true
                  | exception Persist.Hard_corruption _ -> false
                in
                (match ingest_decode "events frame" ~pos ~len buf ~program ~ev ~ev_pos:0 with
                | _ -> if not alone then fail "events frame: taken here, refused on its own"
                | exception Persist.Hard_corruption _ ->
                  if alone then fail "events frame: refused here, taken on its own")
              | Some (P.Dechunker.Msg m), Some m' when m = m' -> incr decoded
              | _ -> disagree "frame")
          done
        done;
        `Clean
      with P.Protocol_error _ -> `Rejected
    in
    match outcome with
    | `Clean when mutation = 0 && !decoded <> n_msgs ->
      failure :=
        Some
          (Printf.sprintf "case %d: pristine stream decoded %d of %d frames" i !decoded
             n_msgs)
    | `Rejected when mutation = 0 ->
      failure := Some (Printf.sprintf "case %d: pristine stream rejected" i)
    | `Clean -> incr n_ok
    | `Rejected -> incr n_rejected
  in
  let i = ref 0 in
  while !failure = None && !i < cases do
    (try
       if Sm.int rng 3 = 0 then forgery_case !i else frame_case !i;
       if !failure = None then field_forgery_case !i
     with e ->
       failure :=
         Some (Printf.sprintf "case %d: unexpected exception %s" !i (Printexc.to_string e)));
    incr i
  done;
  (!failure, !n_ok, !n_rejected, !n_forged)

let () =
  let seeds = ref "1-5" in
  let steps = ref 4000 in
  let shrink = ref false in
  let self_test = ref false in
  let out = ref "" in
  let genome = ref "" in
  let policy = ref "net" in
  let fault = ref "" in
  let snapshots = ref false in
  let corruptions = ref 50 in
  let streams = ref false in
  let frames = ref false in
  let cases = ref 200 in
  let flight = ref "" in
  let spec =
    [
      ("--seeds", Arg.Set_string seeds, "A-B  seed range to fuzz (default 1-5)");
      ("--seed", Arg.Set_string seeds, "N  fuzz (or replay) a single seed");
      ("--steps", Arg.Set_int steps, "N  step budget per case (default 4000)");
      ("--shrink", Arg.Set shrink, " greedily shrink the first failure before reporting");
      ("--out", Arg.Set_string out, "FILE  write the reproducer command line to FILE");
      ( "--genome",
        Arg.Set_string genome,
        "G1,G2,...  replay one explicit case instead of fuzzing" );
      ("--policy", Arg.Set_string policy, "NAME  policy for --genome replay (default net)");
      ( "--fault",
        Arg.Set_string fault,
        "NAME  fault profile for --genome replay (default none)" );
      ( "--snapshots",
        Arg.Set snapshots,
        " fuzz the checkpoint restore path instead: corrupt a mid-run snapshot and \
         require clean/degraded/rejected restores, never a crash or silent divergence" );
      ( "--corruptions",
        Arg.Set_int corruptions,
        "N  corrupted restores per seed with --snapshots (default 50)" );
      ( "--streams",
        Arg.Set streams,
        " fuzz the multi-stream scheduler instead: seeded 2-4 tenant fleets (mixed \
         policies and faults), each tenant solo-checked under the sanitizer, then \
         multiplexed and held to solo parity and cross-domain budget determinism" );
      ( "--frames",
        Arg.Set frames,
        " fuzz the daemon wire protocol instead: truncated/bit-flipped/garbage frames \
         through the incremental dechunker and the batch event codec, plus forged \
         count and shape fields in event-log files and batches; every outcome must be \
         a typed reject or a clean decode, never a crash.  Each case is followed by a \
         payload forgery (an out-of-range field behind a re-sealed checksum), which \
         decode must refuse" );
      ("--cases", Arg.Set_int cases, "N  frame cases per seed with --frames (default 200)");
      ( "--self-test-break",
        Arg.Set self_test,
        " (test only) inject a cache corruption and verify the sanitizer catches and \
         shrinks it" );
      ( "--flight",
        Arg.Set_string flight,
        "FILE  on failure, re-run the shrunk case with windowed metrics and dump the \
         flight record (metric history leading up to the crash + reproducer line) to \
         FILE as JSONL" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !self_test then begin
    match Fuzz.self_test ?flight:(if !flight = "" then None else Some !flight) () with
    | Error msg ->
      Printf.eprintf "self-test FAILED: %s\n%!" msg;
      exit 1
    | Ok budget ->
      Printf.printf "self-test: injected corruption caught; minimal reproducing budget \
                     is %d steps\n%!"
        budget;
      if budget <= 20 then exit 0
      else begin
        Printf.eprintf "self-test FAILED: reproducer budget %d exceeds 20 steps\n%!" budget;
        exit 1
      end
  end;
  let lo, hi = parse_seeds !seeds in
  if !snapshots then begin
    (* Snapshot-corruption axis: per seed, one mid-run checkpoint battered
       [corruptions] times; every restore must land in a lawful outcome. *)
    let failed = ref false in
    let seed = ref lo in
    while (not !failed) && !seed <= hi do
      (match Fuzz.run_snapshot_seed ~corruptions:!corruptions ~max_steps:!steps !seed with
      | None, s ->
        Printf.printf "seed %d: %d restores ok (%d clean, %d degraded, %d rejected)\n%!"
          !seed s.Fuzz.snap_cases s.Fuzz.snap_clean s.Fuzz.snap_degraded s.Fuzz.snap_rejected
      | Some (c, detail), s ->
        failed := true;
        Printf.printf "FAIL %s\n  snapshot restore after %d ok restores: %s\n%!"
          (Fuzz.cli_line c) (s.Fuzz.snap_cases - 1) detail);
      incr seed
    done;
    exit (if !failed then 1 else 0)
  end;
  if !streams then begin
    (* Multi-stream axis: tenant fleets held to solo parity (no budget)
       and cross-domain determinism (shared budget).  Failures are already
       shrunk — per-tenant reproducers print as replayable cli lines. *)
    let failed = ref false in
    let seed = ref lo in
    while (not !failed) && !seed <= hi do
      (match Fuzz.run_streams_seed ~max_steps:!steps !seed with
      | None, n -> Printf.printf "seed %d: %d-tenant fleet ok\n%!" !seed n
      | Some (cases, detail), n ->
        failed := true;
        Printf.printf "FAIL seed %d (%d-tenant fleet, shrunk to %d): %s\n%!" !seed n
          (List.length cases) detail;
        List.iter (fun c -> Printf.printf "  tenant: %s\n%!" (Fuzz.cli_line c)) cases;
        match !out with
        | "" -> ()
        | path ->
          let oc = open_out path in
          Printf.fprintf oc "# %s\n" detail;
          List.iter (fun c -> Printf.fprintf oc "%s\n" (Fuzz.cli_line c)) cases;
          close_out oc;
          Printf.printf "reproducer written to %s\n%!" path);
      incr seed
    done;
    exit (if !failed then 1 else 0)
  end;
  if !frames then begin
    (* Daemon-framing axis: corrupt wire bytes must always land in a
       typed outcome. *)
    let failed = ref false in
    let seed = ref lo in
    while (not !failed) && !seed <= hi do
      (match run_frames_seed ~cases:!cases !seed with
      | None, ok, rejected, forged ->
        Printf.printf
          "seed %d: %d frame cases ok (%d clean, %d rejected), %d payload forgeries refused\n%!"
          !seed (ok + rejected) ok rejected forged
      | Some detail, _, _, _ ->
        failed := true;
        Printf.printf "FAIL seed %d (frames): %s\n%!" !seed detail);
      incr seed
    done;
    exit (if !failed then 1 else 0)
  end;
  if !genome <> "" then begin
    (* Explicit replay of one case (the shrinker's output format). *)
    let c =
      {
        Fuzz.seed = lo;
        genome = parse_genome !genome;
        policy = !policy;
        fault = (if !fault = "" then None else Some !fault);
        max_steps = !steps;
      }
    in
    match Fuzz.run_case c with
    | None ->
      Printf.printf "ok: %s\n%!" (Fuzz.cli_line c);
      exit 0
    | Some f ->
      report_failure ~shrink:!shrink ~out:!out ~flight:!flight (c, f);
      exit 1
  end;
  let failed = ref false in
  let total = ref 0 in
  let seed = ref lo in
  while (not !failed) && !seed <= hi do
    (match Fuzz.run_seed ~max_steps:!steps !seed with
    | None, n ->
      total := !total + n;
      Printf.printf "seed %d: %d cases ok\n%!" !seed n
    | Some (c, f), n ->
      total := !total + n;
      failed := true;
      report_failure ~shrink:!shrink ~out:!out ~flight:!flight (c, f));
    incr seed
  done;
  if !failed then exit 1
  else begin
    Printf.printf "all %d cases ok (seeds %d-%d)\n%!" !total lo hi;
    exit 0
  end
