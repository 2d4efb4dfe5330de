(* Crash-safe warm-state checkpoint/restore: the differential identity
   gate (save at step N + restore + continue is bit-identical to the
   uninterrupted run across every policy), per-section
   codec round-trips, corruption tolerance with graceful degradation, and
   atomic on-disk writes. *)

module Image = Regionsel_workload.Image
module Simulator = Regionsel_engine.Simulator
module Params = Regionsel_engine.Params
module Context = Regionsel_engine.Context
module Code_cache = Regionsel_engine.Code_cache
module Stats = Regionsel_engine.Stats
module History_buffer = Regionsel_core.History_buffer
module Policies = Regionsel_core.Policies
module Telemetry = Regionsel_telemetry.Telemetry
module Run_metrics = Regionsel_metrics.Run_metrics
module Persist = Regionsel_persist.Persist
module Check = Regionsel_check.Check
module Fuzz = Regionsel_check.Fuzz
open Fixtures

let policy_exn name = Option.get (Policies.find name)

(* Run [image] with a telemetry sink, capturing an encoded snapshot the
   first time the step count reaches [at] ([max_int] = after the last
   step).  [restore] decodes a snapshot before the first step. *)
let capture ?restore ~at ~params ~policy ~seed ~max_steps image =
  let sim =
    Simulator.create ~params ~seed
      ~telemetry:(Some (Telemetry.create ()))
      ?restore ~policy:(policy_exn policy) ~max_steps image
  in
  Simulator.advance sim ~upto:at;
  let bytes = Persist.encode ~seed ~policy (Simulator.internals sim) in
  (Simulator.finish sim, bytes)

(* [f] applied to the internals of a sink-less 30k-step run at step [at]. *)
let with_internals_at ~at (image, policy, seed, params) f =
  let sim =
    Simulator.create ~params ~seed ~policy:(policy_exn policy) ~max_steps:30_000 image
  in
  Simulator.advance sim ~upto:at;
  f (Simulator.internals sim)

let get_u32 bytes pos =
  (Char.code (Bytes.get bytes pos) lsl 24)
  lor (Char.code (Bytes.get bytes (pos + 1)) lsl 16)
  lor (Char.code (Bytes.get bytes (pos + 2)) lsl 8)
  lor Char.code (Bytes.get bytes (pos + 3))

let set_u32 bytes pos v =
  Bytes.set bytes pos (Char.chr ((v lsr 24) land 0xFF));
  Bytes.set bytes (pos + 1) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set bytes (pos + 2) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set bytes (pos + 3) (Char.chr (v land 0xFF))

(* Walk the file format: magic(4) ver(4) n_blocks(4) seed(8) nlen(4) name
   n_sections(4) crc(4), then frames of tag(4) ver(4) len(4) crc(4)
   payload. *)
let frames bytes =
  let name_len = get_u32 bytes 20 in
  let pos = ref (24 + name_len + 8) in
  let acc = ref [] in
  while !pos < Bytes.length bytes do
    let plen = get_u32 bytes (!pos + 8) in
    acc := (get_u32 bytes !pos, !pos, plen) :: !acc;
    pos := !pos + 16 + plen
  done;
  List.rev !acc

(* Name the sections whose frames differ between two snapshots, for
   failure messages that say *what* state diverged. *)
let diff_frames a b =
  let frame bytes (tag, fpos, plen) = (tag, Bytes.sub bytes fpos (16 + plen)) in
  let fa = List.map (frame a) (frames a) and fb = List.map (frame b) (frames b) in
  if List.length fa <> List.length fb then [ "frame count" ]
  else
    List.filter_map
      (fun ((tag, pa), (_, pb)) ->
        if Bytes.equal pa pb then None
        else
          let n = min (Bytes.length pa) (Bytes.length pb) in
          let off = ref 16 in
          while !off < n && Bytes.get pa !off = Bytes.get pb !off do
            incr off
          done;
          Some
            (Printf.sprintf "tag %d (lens %d/%d, first diff at %d)" tag (Bytes.length pa)
               (Bytes.length pb) !off))
      (List.combine fa fb)

(* A restore hook that insists on a fully clean decode and runs the cache
   auditor the instant the state is back. *)
let clean_restore ~bytes ~policy ~seed (internals : Simulator.internals) =
  let report = Persist.decode_into bytes ~seed ~policy internals in
  if not (Persist.clean report) then
    Alcotest.fail
      (Printf.sprintf "expected a clean restore, got %d degraded sections (%s)"
         (List.length report.Persist.degraded)
         (String.concat "; "
            (List.map (fun (d : Persist.degraded) -> d.Persist.section) report.Persist.degraded)));
  let cache = internals.Simulator.int_ctx.Context.cache in
  Check.audit_cache ~program:internals.Simulator.int_ctx.Context.program cache
    ~step:(Code_cache.now cache)

(* The tentpole gate: for one (policy, params) point, an uninterrupted run
   and a save-at-mid + restore-into-fresh-run + continue must agree on the
   metric record byte-for-byte AND on a full end-of-run snapshot
   byte-for-byte — the latter pins every PRNG stream position, telemetry
   counter and policy-private structure, not just the reported metrics. *)
let assert_identity ?(seed = 7L) ?(edit = Fun.id) ~params ~policy ~max_steps ~mid image =
  let full_result, full_end = capture ~at:max_int ~params ~policy ~seed ~max_steps image in
  let _, mid_bytes = capture ~at:mid ~params ~policy ~seed ~max_steps image in
  let mid_bytes = edit mid_bytes in
  let restored_result, restored_end =
    capture
      ~restore:(clean_restore ~bytes:mid_bytes ~policy ~seed)
      ~at:max_int ~params ~policy ~seed ~max_steps image
  in
  Alcotest.(check string)
    (policy ^ ": restored metrics JSON is byte-identical")
    (Run_metrics.to_json (Run_metrics.of_result full_result))
    (Run_metrics.to_json (Run_metrics.of_result restored_result));
  if not (Bytes.equal full_end restored_end) then
    Alcotest.failf "%s (mid %d): end-of-run snapshot diverged in sections [%s]" policy mid
      (String.concat "; " (diff_frames full_end restored_end))

let identity_across_policies_and_checkpoint_steps () =
  let image = figure2 ~iters:4_000 () in
  check_int "the whole policy matrix is under test" 7 (List.length Policies.all);
  List.iter
    (fun (policy, _) ->
      List.iter
        (fun mid -> assert_identity ~params:Params.default ~policy ~max_steps:30_000 ~mid image)
        [ 0; 11_000; 23_000 ])
    Policies.all

(* The same gate under an adversarial schedule: every fault stream firing,
   including optimizer crashes, with the snapshot taken between faults. *)
let identity_under_mixed_faults_with_crashes () =
  let profile =
    {
      Params.first_fault_step = 4_000;
      smc_period = 11_000;
      smc_span_blocks = 4;
      translation_failure_period = 13_000;
      translation_failure_window = 1_000;
      async_exit_period = 7_000;
      cache_shock_period = 17_000;
      cache_shock_bytes = 4_096;
      crash_period = 19_000;
    }
  in
  let image = figure2 ~iters:20_000 () in
  let params = { Params.default with Params.faults = Some profile } in
  List.iter
    (fun mid -> assert_identity ~params ~policy:"net" ~max_steps:60_000 ~mid image)
    [ 9_500; 31_000 ]

(* A save point at or below the step a run starts from is taken at once,
   at that step — not one step late: saving straight after restoring a
   snapshot hands back its bytes, for a step-0 snapshot of a fresh run
   too. *)
let save_at_or_before_start_is_immediate () =
  let image = figure2 ~iters:4_000 () in
  let params = Params.default and policy = "net" and seed = 7L in
  List.iter
    (fun (mid, at) ->
      let _, saved = capture ~at:mid ~params ~policy ~seed ~max_steps:30_000 image in
      let _, again =
        capture
          ~restore:(clean_restore ~bytes:saved ~policy ~seed)
          ~at ~params ~policy ~seed ~max_steps:30_000 image
      in
      if not (Bytes.equal saved again) then
        Alcotest.failf "save at %d after a step-%d restore changed sections [%s]" at mid
          (String.concat "; " (diff_frames saved again)))
    [ (0, 0); (11_000, 0); (11_000, 5_000); (11_000, 11_000) ]

(* Restoring under the sanitizer: the shadow oracle fast-forwards to the
   restored position, so a checked run can resume a snapshot without
   spurious divergence reports (and with per-mutation audits on). *)
let checked_run_resumes_a_snapshot () =
  let image = figure2 ~iters:4_000 () in
  let policy = "net" and seed = 7L in
  let params = Params.default in
  let _, mid_bytes = capture ~at:11_000 ~params ~policy ~seed ~max_steps:30_000 image in
  let result =
    Check.checked_run ~params ~seed ~telemetry:(Telemetry.create ())
      ~restore:(fun internals ->
        let report = Persist.decode_into mid_bytes ~seed ~policy internals in
        check_true "checked restore is clean" (Persist.clean report))
      ~policy:(policy_exn policy) ~max_steps:30_000 image
  in
  let full, _ = capture ~at:max_int ~params ~policy ~seed ~max_steps:30_000 image in
  (* Restore reconciles the span ledger (closing spans that were live at
     the checkpoint), so the open/closed split legitimately differs from
     an uninterrupted run.  Every other metric — including the telemetry
     event counts — must match exactly. *)
  let norm (m : Run_metrics.t) =
    {
      m with
      Run_metrics.telemetry =
        Option.map
          (fun (emitted, dropped, _open_, _closed) -> (emitted, dropped, 0, 0))
          m.Run_metrics.telemetry;
    }
  in
  Alcotest.(check string)
    "checked resumed run reports the uninterrupted metrics"
    (Run_metrics.to_json (norm (Run_metrics.of_result full)))
    (Run_metrics.to_json (norm (Run_metrics.of_result result)))

(* ---- Snapshot surgery helpers for the corruption tests ---- *)

(* An independent CRC32 (same IEEE polynomial as the writer) so the tests
   can forge section frames with valid checksums. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc_update c bytes ~pos ~len =
  let acc = ref c in
  for i = pos to pos + len - 1 do
    acc := crc_table.((!acc lxor Char.code (Bytes.get bytes i)) land 0xFF) lxor (!acc lsr 8)
  done;
  !acc

let crc32_frame bytes ~hpos ~ppos ~plen =
  crc_update (crc_update 0xFFFFFFFF bytes ~pos:hpos ~len:12) bytes ~pos:ppos ~len:plen
  lxor 0xFFFFFFFF

(* The word-at-a-time CRC against the bytewise reference above, at every
   start offset modulo 8 and every tail length of its 8-byte loop. *)
let qcheck_crc32_matches_bytewise =
  let gen =
    QCheck.Gen.(
      triple (int_range 0 15) (int_range 0 300) (int_range 0 15) >>= fun (off, len, extra) ->
      map (fun s -> (off, len, s)) (string_size ~gen:char (return (off + len + extra))))
  in
  let print (off, len, _) = Printf.sprintf "offset %d, length %d" off len in
  QCheck.Test.make ~name:"crc32 matches a bytewise reference" ~count:1000
    (QCheck.make ~print gen)
    (fun (pos, len, s) ->
      let bytes = Bytes.of_string s in
      Persist.crc32 bytes ~pos ~len = crc_update 0xFFFFFFFF bytes ~pos ~len lxor 0xFFFFFFFF)

(* Re-seal a frame whose header or payload the test just edited. *)
let reseal bytes fpos plen =
  set_u32 bytes (fpos + 12) (crc32_frame bytes ~hpos:fpos ~ppos:(fpos + 16) ~plen)

let mk_snapshot () =
  let image = figure2 ~iters:4_000 () in
  let policy = "lei" and seed = 7L in
  let params = Params.default in
  let _, bytes = capture ~at:11_000 ~params ~policy ~seed ~max_steps:30_000 image in
  (image, policy, seed, params, bytes)

(* Decode [bytes] into a fresh run's state and hand back the report;
   [inspect] sees the state right after the decode. *)
let decode_fresh ?(inspect = ignore) (image, policy, seed, params, bytes) =
  let got = ref None in
  let (_ : Simulator.result) =
    Simulator.run ~params ~seed
      ~telemetry:(Some (Telemetry.create ()))
      ~restore:(fun internals ->
        let report = Persist.decode_into bytes ~seed ~policy internals in
        (* Whatever was dropped, the structural cache invariants must hold
           before the run takes its first step. *)
        let cache = internals.Simulator.int_ctx.Context.cache in
        Check.audit_cache ~program:internals.Simulator.int_ctx.Context.program cache
          ~step:(Code_cache.now cache);
        inspect internals;
        got := Some report)
      ~policy:(policy_exn policy) ~max_steps:30_000 image
  in
  Option.get !got

let sections_of report = List.map (fun (d : Persist.degraded) -> d.Persist.section) report.Persist.degraded

(* A snapshot and the run restoring it need not agree on instrumentation.
   Both skew directions must keep the sanitizer's open-spans =
   live-regions rule intact: a sink-less snapshot restored into an
   instrumented run re-announces its live regions to the ledger, and a
   snapshot whose cache section is lost (but whose telemetry section
   survives) closes the ghost spans. *)
let restore_reconciles_span_ledger () =
  let image = figure2 ~iters:4_000 () in
  let policy = "lei" and seed = 7L in
  let params = Params.default in
  (* Direction 1: saved without a telemetry sink, restored under check. *)
  let sinkless_bytes =
    with_internals_at ~at:11_000 (image, policy, seed, params) (Persist.encode ~seed ~policy)
  in
  let (_ : Simulator.result) =
    Check.checked_run ~params ~seed
      ~restore:(fun internals ->
        let report = Persist.decode_into sinkless_bytes ~seed ~policy internals in
        check_true "sink-less restore is clean" (Persist.clean report))
      ~policy:(policy_exn policy) ~max_steps:30_000 image
  in
  (* Direction 2: cache section corrupted, telemetry section intact. *)
  let _, sink_bytes = capture ~at:11_000 ~params ~policy ~seed ~max_steps:30_000 image in
  let tag, fpos, plen =
    List.find (fun (tag, _, _) -> tag = 7) (frames sink_bytes)
  in
  check_int "found the cache frame" 7 tag;
  let mutant = Bytes.copy sink_bytes in
  Bytes.set mutant (fpos + 16 + (plen / 2))
    (Char.chr (Char.code (Bytes.get mutant (fpos + 16 + (plen / 2))) lxor 0x40));
  let (_ : Simulator.result) =
    Check.checked_run ~params ~seed
      ~restore:(fun internals ->
        let report = Persist.decode_into mutant ~seed ~policy internals in
        Alcotest.(check (list string))
          "only the cache section dropped" [ "cache" ] (sections_of report))
      ~policy:(policy_exn policy) ~max_steps:30_000 image
  in
  ()

let flipped_payload_degrades_only_that_section () =
  let image, policy, seed, params, bytes = mk_snapshot () in
  let tag, fpos, plen = List.nth (frames bytes) 6 in
  check_int "frame 6 is the cache section" 7 tag;
  check_true "cache payload is non-trivial" (plen > 16);
  let mutant = Bytes.copy bytes in
  Bytes.set mutant (fpos + 16 + (plen / 2))
    (Char.chr (Char.code (Bytes.get mutant (fpos + 16 + (plen / 2))) lxor 0x40));
  let report = decode_fresh (image, policy, seed, params, mutant) in
  Alcotest.(check (list string)) "only the cache section dropped" [ "cache" ] (sections_of report);
  check_true "everything else restored"
    (List.length report.Persist.restored = List.length (frames bytes) - 1);
  check_int "nothing skipped" 0 report.Persist.skipped

let flipped_tag_is_checksummed_not_skipped () =
  (* The frame checksum covers the header: corrupting the tag must surface
     as a degraded section, never as a silently-skipped unknown one. *)
  let image, policy, seed, params, bytes = mk_snapshot () in
  let _, fpos, _ = List.hd (frames bytes) in
  let mutant = Bytes.copy bytes in
  set_u32 mutant fpos 99;
  let report = decode_fresh (image, policy, seed, params, mutant) in
  Alcotest.(check (list string)) "tag flip degrades the frame" [ "tag-99" ] (sections_of report);
  check_int "tag flip is not a skip" 0 report.Persist.skipped

let unknown_tag_with_valid_seal_is_skipped () =
  (* A well-formed frame from a future writer (unknown tag, valid
     checksum) is version skew, not corruption: skipped, not degraded. *)
  let image, policy, seed, params, bytes = mk_snapshot () in
  let _, fpos, plen = List.hd (frames bytes) in
  let mutant = Bytes.copy bytes in
  set_u32 mutant fpos 99;
  reseal mutant fpos plen;
  let report = decode_fresh (image, policy, seed, params, mutant) in
  check_int "future-tag frame skipped" 1 report.Persist.skipped;
  Alcotest.(check (list string)) "nothing degraded" [] (sections_of report)

let version_skewed_section_degrades () =
  let image, policy, seed, params, bytes = mk_snapshot () in
  let _, fpos, plen = List.nth (frames bytes) 1 in
  let mutant = Bytes.copy bytes in
  set_u32 mutant (fpos + 4) 2;
  reseal mutant fpos plen;
  let report = decode_fresh (image, policy, seed, params, mutant) in
  Alcotest.(check (list string)) "stats section dropped on version skew" [ "stats" ]
    (sections_of report);
  match report.Persist.degraded with
  | [ d ] -> check_true "reason names the version" (d.Persist.reason = "unsupported section version 2")
  | _ -> Alcotest.fail "expected exactly one degraded section"

let truncation_degrades_tail_sections () =
  let image, policy, seed, params, bytes = mk_snapshot () in
  let _, fpos, plen = List.nth (frames bytes) 6 in
  (* Cut inside the cache payload: cache and every later section die,
     every earlier section survives. *)
  let mutant = Bytes.sub bytes 0 (fpos + 16 + (plen / 2)) in
  let report = decode_fresh (image, policy, seed, params, mutant) in
  check_true "the cut section is degraded" (List.mem "cache" (sections_of report));
  check_true "earlier sections survived" (List.mem "interp" report.Persist.restored);
  check_true "later sections gone" (not (List.mem "loop" report.Persist.restored));
  (* A cut at an exact frame boundary parses as a shorter-but-valid file;
     the header's section count must still convict it (otherwise the
     missing tail would re-warm silently). *)
  let boundary = Bytes.sub bytes 0 fpos in
  let report = decode_fresh (image, policy, seed, params, boundary) in
  check_true "boundary truncation is not a clean restore"
    (not (Persist.clean report));
  check_true "boundary truncation names the missing tail"
    (List.mem "<file>" (sections_of report))

let header_damage_is_hard_corruption () =
  let image, policy, seed, params, bytes = mk_snapshot () in
  List.iter
    (fun (label, mutate) ->
      let mutant = Bytes.copy bytes in
      mutate mutant;
      match decode_fresh (image, policy, seed, params, mutant) with
      | (_ : Persist.report) -> Alcotest.fail (label ^ ": expected Hard_corruption")
      | exception Persist.Hard_corruption _ -> ())
    [
      ("magic", fun b -> Bytes.set b 0 'X');
      ("format version", fun b -> set_u32 b 4 9);
      ("seed word", fun b -> set_u32 b 12 (get_u32 b 12 lxor 1));
      ( "section count",
        fun b -> set_u32 b (24 + get_u32 b 20) (get_u32 b (24 + get_u32 b 20) lxor 1) );
      ( "header checksum",
        fun b -> set_u32 b (28 + get_u32 b 20) (get_u32 b (28 + get_u32 b 20) lxor 1) );
      ("empty file", fun b -> Bytes.fill b 0 (Bytes.length b) '\000');
    ];
  (* Identity mismatches are also hard: restoring under the wrong policy
     or seed must refuse rather than silently continue a different run. *)
  (match decode_fresh (image, "net", seed, params, bytes) with
  | (_ : Persist.report) -> Alcotest.fail "policy mismatch: expected Hard_corruption"
  | exception Persist.Hard_corruption _ -> ());
  match decode_fresh (image, policy, 8L, params, bytes) with
  | (_ : Persist.report) -> Alcotest.fail "seed mismatch: expected Hard_corruption"
  | exception Persist.Hard_corruption _ -> ()

(* Replace one section's payload (possibly changing its length) and
   re-seal the frame, so only the section's own loader can object. *)
let with_payload bytes ~tag edit =
  let _, fpos, plen = List.find (fun (t, _, _) -> t = tag) (frames bytes) in
  let ppos = fpos + 16 in
  let payload = edit (Bytes.sub bytes ppos plen) in
  let n = Bytes.length payload in
  let mutant =
    Bytes.concat Bytes.empty
      [
        Bytes.sub bytes 0 ppos;
        payload;
        Bytes.sub bytes (ppos + plen) (Bytes.length bytes - ppos - plen);
      ]
  in
  set_u32 mutant (fpos + 8) n;
  reseal mutant fpos n;
  mutant

(* Payload ints ride as two big-endian u32s, low word first. *)
let get_int payload i = (get_u32 payload ((8 * i) + 4) lsl 32) lor get_u32 payload (8 * i)

let set_int payload i v =
  set_u32 payload (8 * i) (v land 0xFFFFFFFF);
  set_u32 payload ((8 * i) + 4) ((v asr 32) land 0x7FFFFFFF)

(* A damaged stats section must re-warm from scratch: degraded, with every
   counter still at its fresh zero — never half loaded, never negative. *)
let assert_stats_degrade_to_zero what edit =
  let image, policy, seed, params, bytes = mk_snapshot () in
  let counters = ref [] in
  let report =
    decode_fresh
      ~inspect:(fun internals ->
        Stats.save internals.Simulator.int_stats (fun v -> counters := v :: !counters))
      (image, policy, seed, params, with_payload bytes ~tag:2 edit)
  in
  Alcotest.(check (list string))
    (what ^ ": stats section dropped") [ "stats" ] (sections_of report);
  Alcotest.(check (list int))
    (what ^ ": every counter left at zero")
    (List.init (Array.length Stats.fields) (fun _ -> 0))
    !counters

let short_stats_section_loads_nothing () =
  assert_stats_degrade_to_zero "half payload" (fun p ->
      check_int "stats payload is 16 ints" 128 (Bytes.length p);
      Bytes.sub p 0 64)

let negative_stats_counter_degrades () =
  assert_stats_degrade_to_zero "steps = -1" (fun p ->
      set_int p 0 (-1);
      p)

(* The loop section's second slot once held the region-mode block address
   and is now written as [Addr.none].  A snapshot that still carries a
   real address there must restore clean and continue bit-identically. *)
let retired_loop_slot_is_ignored () =
  let image = figure2 ~iters:4_000 () in
  let block_addr = Regionsel_isa.Program.entry image.Image.program in
  assert_identity ~params:Params.default ~policy:"net" ~max_steps:30_000 ~mid:11_000 image
    ~edit:(fun bytes ->
      with_payload bytes ~tag:11 (fun p ->
          check_true "a region is live at the checkpoint" (get_int p 0 >= 0);
          check_int "the slot is written as Addr.none" Regionsel_isa.Addr.none (get_int p 1);
          set_int p 1 block_addr;
          p))

let degraded_restore_still_finishes () =
  (* Drop the cache section and run to completion: the re-warmed cache
     refills and the run ends sane (fresh regions, no violations). *)
  let image, policy, seed, params, bytes = mk_snapshot () in
  let tag, fpos, plen = List.nth (frames bytes) 6 in
  check_int "frame 6 is the cache section" 7 tag;
  let mutant = Bytes.copy bytes in
  Bytes.set mutant (fpos + 16) (Char.chr (Char.code (Bytes.get mutant (fpos + 16)) lxor 1));
  ignore plen;
  let result =
    Simulator.run ~params ~seed
      ~restore:(fun internals ->
        let report = Persist.decode_into mutant ~seed ~policy internals in
        check_true "cache dropped" (List.mem "cache" (sections_of report)))
      ~policy:(policy_exn policy) ~max_steps:30_000 image
  in
  let m = Run_metrics.of_result result in
  check_true "run completed past the snapshot point" (m.Run_metrics.stats.Stats.steps > 11_000);
  check_true "re-warmed cache selected regions again" (m.Run_metrics.n_regions > 0)

(* ---- qcheck properties ---- *)

let genome_gen = QCheck.(list_of_size (Gen.int_range 1 5) (int_bound 1000))

(* Decode-then-re-encode is the identity on snapshot bytes: every section
   codec reproduces, from its restored state, the exact stream it was
   loaded from (random workloads, policies and checkpoint moments). *)
let qcheck_reencode_identity =
  QCheck.Test.make ~name:"decode then re-encode reproduces the snapshot byte-for-byte"
    ~count:20
    QCheck.(triple genome_gen (int_bound 1000) (int_bound 6))
    (fun (genome, seed_small, policy_idx) ->
      let image = Fuzz.image_of_genome genome in
      let policy = fst (List.nth Policies.all policy_idx) in
      let seed = Int64.of_int (seed_small + 1) in
      let params = Params.default in
      let bytes =
        let _, b = capture ~at:1_000 ~params ~policy ~seed ~max_steps:2_000 image in
        b
      in
      let reencoded = ref None in
      let (_ : Simulator.result) =
        Simulator.run ~params ~seed
          ~telemetry:(Some (Telemetry.create ()))
          ~restore:(fun internals ->
            let report = Persist.decode_into bytes ~seed ~policy internals in
            if not (Persist.clean report) then
              QCheck.Test.fail_report "restore of a pristine snapshot degraded";
            reencoded := Some (Persist.encode ~seed ~policy internals))
          ~policy:(policy_exn policy) ~max_steps:2_000 image
      in
      let reencoded = Option.get !reencoded in
      if not (Bytes.equal bytes reencoded) then
        QCheck.Test.fail_reportf "re-encode diverged in sections [%s]"
          (String.concat "; " (diff_frames bytes reencoded));
      true)

(* The PR 5 aliasing regression class: a history buffer whose ring cursor
   has wrapped (and possibly been truncated back) must round-trip through
   its codec with identical bytes and identical lookup behaviour. *)
let qcheck_history_buffer_roundtrip =
  QCheck.Test.make ~name:"history buffer codec round-trips wrapped-cursor states" ~count:200
    QCheck.(
      pair (int_range 2 8)
        (list_of_size (Gen.int_range 0 40) (pair (int_bound 50) (int_bound 20))))
    (fun (capacity, ops) ->
      let t = History_buffer.create (grid_program ()) ~capacity in
      let seqs =
        List.map
          (fun (src, tgt) ->
            History_buffer.insert t ~src ~tgt ~follows_exit:(src mod 3 = 0))
          ops
      in
      (* Occasionally rewind: truncate_after moves the cursor backwards,
         the other half of the wraparound state space. *)
      (match seqs with
      | s :: _ :: _ when capacity mod 2 = 0 -> History_buffer.truncate_after t ~seq:s
      | _ -> ());
      let dump u =
        let acc = ref [] in
        History_buffer.save u (fun v -> acc := v :: !acc);
        List.rev !acc
      in
      let saved = dump t in
      let t' = History_buffer.create (grid_program ()) ~capacity in
      let arr = Array.of_list saved in
      let i = ref 0 in
      History_buffer.load t' (fun () ->
          let v = arr.(!i) in
          incr i;
          v);
      dump t' = saved
      && List.for_all
           (fun tgt -> History_buffer.find t tgt = History_buffer.find t' tgt)
           (List.init 21 Fun.id))

(* ---- Corruption fuzz (the snapshot axis of regionsel_fuzz) ---- *)

let snapshot_corruption_axis () =
  for seed = 1 to 3 do
    match Fuzz.run_snapshot_seed ~corruptions:20 ~max_steps:2_000 seed with
    | None, s ->
      check_true "control restore was clean" (s.Fuzz.snap_clean >= 1);
      check_int "every restore classified" 21 s.Fuzz.snap_cases
    | Some (c, detail), _ -> Alcotest.fail (Fuzz.cli_line c ^ ": " ^ detail)
  done

(* ---- On-disk atomicity ---- *)

let torn_write_leaves_previous_snapshot_intact () =
  let image = figure2 ~iters:4_000 () in
  let cfg = (image, "net", 7L, Params.default) in
  let path = Filename.temp_file "regionsel" ".snap" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp"))
    (fun () ->
      (* A good snapshot at step 8k, then a crash halfway through writing
         a later one: the file must still hold the step-8k state. *)
      with_internals_at ~at:8_000 cfg (fun internals ->
          Persist.save_file ~path ~seed:7L ~policy:"net" internals);
      let good = In_channel.with_open_bin path In_channel.input_all in
      with_internals_at ~at:20_000 cfg (fun internals ->
          Persist.save_file ~crash_after_bytes:(String.length good / 3) ~path ~seed:7L
            ~policy:"net" internals);
      let after = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string) "crashed checkpoint never touched the snapshot" good after;
      check_true "the torn temporary is a partial prefix"
        (Sys.file_exists (path ^ ".tmp")
        && (Unix.stat (path ^ ".tmp")).Unix.st_size = String.length good / 3);
      (* And the surviving file restores cleanly. *)
      let report = ref None in
      let (_ : Simulator.result) =
        Simulator.run ~params:Params.default ~seed:7L
          ~restore:(fun internals ->
            report := Some (Persist.restore_file ~path ~seed:7L ~policy:"net" internals))
          ~policy:(policy_exn "net") ~max_steps:30_000 image
      in
      check_true "survivor restores clean" (Persist.clean (Option.get !report));
      (* A completed save replaces it and removes the temporary. *)
      with_internals_at ~at:20_000 cfg (fun internals ->
          Persist.save_file ~path ~seed:7L ~policy:"net" internals);
      let replaced = In_channel.with_open_bin path In_channel.input_all in
      check_true "completed save replaced the snapshot" (replaced <> good))

let missing_file_raises_sys_error () =
  let image = figure2 ~iters:4_000 () in
  match
    Simulator.run ~params:Params.default ~seed:7L
      ~restore:(fun internals ->
        ignore
          (Persist.restore_file ~path:"/nonexistent/regionsel.snap" ~seed:7L ~policy:"net"
             internals))
      ~policy:(policy_exn "net") ~max_steps:1_000 image
  with
  | (_ : Simulator.result) -> Alcotest.fail "expected Sys_error"
  | exception Sys_error _ -> ()

(* The command-line restore path, end to end: a snapshot saved by a run
   without a trace sink, restored into a run with --trace-out.  The
   restore audit must run after the new run has reconciled its span
   ledger with the restored cache, or it reports the live regions as
   missing their spans ("span-open", exit 3) although the restore is
   sound.  The restored run must print the uninterrupted run's report. *)
let cli_restore_sinkless_snapshot_with_trace () =
  let exe =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ Filename.parent_dir_name; "bin"; "regionsel_sim.exe" ]
  in
  let tmp suffix = Filename.temp_file "regionsel_cli" suffix in
  let snap = tmp ".snap" and trace = tmp ".json" in
  let sim args ~out =
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let argv = [ exe; "run"; "-b"; "gcc"; "-p"; "boa"; "-n"; "120000" ] @ args in
    let pid = Unix.create_process exe (Array.of_list argv) Unix.stdin fd null in
    Unix.close fd;
    Unix.close null;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED code -> code
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1
  in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let saved = tmp ".txt" and restored = tmp ".txt" in
  check_int "save run exits 0" 0
    (sim [ "--save-state"; snap; "--at-step"; "60000" ] ~out:saved);
  check_int "traced restore exits 0" 0
    (sim [ "--restore-state"; snap; "--trace-out"; trace ] ~out:restored);
  Alcotest.(check string) "restored run reports the uninterrupted metrics" (read saved)
    (read restored);
  check_true "trace written" (String.length (read trace) > 0);
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ snap; trace; trace ^ ".jsonl"; saved; restored ]

(* --- REVL recordings: a decoded file replays as the live run ------------ *)

module Spec = Regionsel_workload.Spec
module Suite = Regionsel_workload.Suite
module Branch_stream = Regionsel_engine.Branch_stream
module Event_log = Regionsel_persist.Event_log

(* Every bench under the paper's four policies: a live run recording its
   stream, then a run replaying the stream decoded from its file, which
   reads the payload in place.  The metric JSONs must be byte-identical. *)
let decoded_file_replays_as_live ?params () =
  List.iter
    (fun (spec : Spec.t) ->
      let image = Spec.image spec in
      let program = image.Image.program in
      let max_steps = min spec.Spec.default_steps 30_000 in
      List.iter
        (fun (pname, policy) ->
          let record = Branch_stream.recorder () in
          let live = Simulator.run ?params ~seed:3L ~record ~policy ~max_steps image in
          let replay =
            Event_log.decode (Event_log.encode ~program ~seed:3L record) ~program ~seed:3L
          in
          let replayed = Simulator.run ?params ~seed:3L ~replay ~policy ~max_steps image in
          Alcotest.(check string)
            (Printf.sprintf "%s/%s replayed from its file" spec.Spec.name pname)
            (Run_metrics.to_json (Run_metrics.of_result live))
            (Run_metrics.to_json (Run_metrics.of_result replayed)))
        Policies.paper)
    Suite.all

let decoded_file_replays_as_live_clean () = decoded_file_replays_as_live ()

let decoded_file_replays_as_live_mixed () =
  decoded_file_replays_as_live
    ~params:{ Params.default with Params.faults = Params.fault_profile "mixed" }
    ()

(* A program whose distinct edges outgrow the program-sized edge table:
   16 blocks each jump indirectly to any of the 16, so a run sees 257
   edges over 18 blocks, past the 1.5 edges per block the table holds
   before it first grows.  Its metrics and a mid-run snapshot are the
   bytes the same run gave when the table started at 4096 edges (digests
   pinned from that build), and the snapshot restores to the
   uninterrupted run. *)
let hubs () =
  let module Builder = Regionsel_workload.Builder in
  let b = Builder.create () in
  Builder.func b "main";
  Builder.block b ~size:2 Builder.Fallthrough;
  let targets = List.init 16 (fun i -> (Printf.sprintf "h%d" i, float_of_int (1 + (i mod 5)))) in
  for i = 0 to 15 do
    Builder.block b ~label:(Printf.sprintf "h%d" i) ~size:(2 + (i mod 3))
      (Builder.Indirect_jump (Builder.Weighted targets))
  done;
  Builder.block b ~size:1 Builder.Halt;
  Builder.compile b ~name:"hubs" ~entry:"main"

let outgrown_edge_table_keeps_every_byte () =
  let image = hubs () in
  let n_blocks = Regionsel_isa.Program.n_blocks image.Image.program in
  List.iter
    (fun (name, json_digest, snap_digest) ->
      let policy = policy_exn name in
      let r = Simulator.run ~seed:3L ~policy ~max_steps:60_000 image in
      let edges = Regionsel_engine.Edge_profile.n_edges r.Simulator.edges in
      if edges <= 3 * n_blocks then
        Alcotest.failf "%s: %d edges over %d blocks cannot outgrow the table" name edges n_blocks;
      let json = Run_metrics.to_json (Run_metrics.of_result r) in
      Alcotest.(check string) (name ^ ": metrics") json_digest (Digest.to_hex (Digest.string json));
      let sim = Simulator.create ~seed:3L ~policy ~max_steps:60_000 image in
      Simulator.advance sim ~upto:25_000;
      let bytes = Persist.encode ~seed:3L ~policy:name (Simulator.internals sim) in
      Alcotest.(check string) (name ^ ": snapshot") snap_digest (Digest.to_hex (Digest.bytes bytes));
      let resumed =
        Simulator.run ~seed:3L ~restore:(clean_restore ~bytes ~policy:name ~seed:3L) ~policy
          ~max_steps:60_000 image
      in
      Alcotest.(check string) (name ^ ": restored run") json
        (Run_metrics.to_json (Run_metrics.of_result resumed)))
    [ ("net", "05930a9d903a45f4bb1d7e6cd8c2d9db", "fa7fd5824097e1f84d6acae9c4cbd2e1");
      ("lei", "232094ee169bfbe97ff96aa54919816a", "6596dac20fc0fe0b8c2972c2235f7bdb");
      ("combined-net", "8f3e3c278b97cc1c4ce4770354f64881", "f1c3531684d934c2396a544cb30e75ed");
      ("combined-lei", "a9b387c9edcba88a031d6ab03a39bf30", "98d8af93893e9379269a7aba543dbd1f");
      ("mojo", "aea8f1bec0e144e766c10f4dc06193b3", "62f73496306233cd29e3107d196efed0");
      ("boa", "6f8774ba8041619331639185496f3950", "d61b8a1a878fc9a8a5578cc8226acba1");
      ("jit-method", "967a3a3d8cf0d1b4da112e3a018c9def", "e06b7616d4f05156ce2f0b6bfed876ae") ]

(* Snapshot bytes are pinned per policy: four benches under all seven
   policies, each a clean run saved halfway through its default budget at
   the CLI's default seed, as [run --save-state F --at-step N] writes it.
   A mismatch names the cell; an intended change to a policy's [save]
   stream (or to any other section) is then reviewed cell by cell, and a
   snapshot written before it will no longer restore byte-identically. *)
let snapshot_bytes_match_golden () =
  let golden = In_channel.with_open_text "golden/snapshots.txt" In_channel.input_lines in
  let lines =
    List.concat_map
      (fun bench ->
        let spec = Option.get (Suite.find bench) in
        let at = spec.Spec.default_steps / 2 in
        List.map
          (fun (policy, _) ->
            let sim =
              Simulator.create ~seed:1L ~policy:(policy_exn policy)
                ~max_steps:spec.Spec.default_steps (Spec.image spec)
            in
            Simulator.advance sim ~upto:at;
            let bytes = Persist.encode ~seed:1L ~policy (Simulator.internals sim) in
            Printf.sprintf "%s %s %d %s" bench policy at (Digest.to_hex (Digest.bytes bytes)))
          Policies.all)
      [ "gzip"; "gcc"; "perlbmk"; "twolf" ]
  in
  check_int "one golden line per cell" (List.length golden) (List.length lines);
  List.iter2
    (fun line want ->
      if line <> want then
        Alcotest.failf "snapshot bytes changed:\n  golden: %s\n  now:    %s" want line)
    lines golden

let suite =
  [
    case "identity across policies and checkpoint steps"
      identity_across_policies_and_checkpoint_steps;
    case "outgrown edge table keeps every byte" outgrown_edge_table_keeps_every_byte;
    case "identity under mixed faults with crashes" identity_under_mixed_faults_with_crashes;
    case "save at or before the start step is immediate"
      save_at_or_before_start_is_immediate;
    case "checked run resumes a snapshot" checked_run_resumes_a_snapshot;
    case "restore reconciles span ledger" restore_reconciles_span_ledger;
    case "cli: sink-less snapshot restores into a traced run"
      cli_restore_sinkless_snapshot_with_trace;
    case "flipped payload degrades only that section" flipped_payload_degrades_only_that_section;
    case "flipped tag is checksummed, not skipped" flipped_tag_is_checksummed_not_skipped;
    case "unknown tag with valid seal is skipped" unknown_tag_with_valid_seal_is_skipped;
    case "version-skewed section degrades" version_skewed_section_degrades;
    case "truncation degrades tail sections" truncation_degrades_tail_sections;
    case "header damage is hard corruption" header_damage_is_hard_corruption;
    case "short stats section loads nothing" short_stats_section_loads_nothing;
    case "negative stats counter degrades" negative_stats_counter_degrades;
    case "retired loop slot is ignored" retired_loop_slot_is_ignored;
    case "degraded restore still finishes" degraded_restore_still_finishes;
    QCheck_alcotest.to_alcotest qcheck_reencode_identity;
    QCheck_alcotest.to_alcotest qcheck_history_buffer_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_crc32_matches_bytewise;
    case "snapshot corruption axis" snapshot_corruption_axis;
    case "snapshot bytes match golden digests" snapshot_bytes_match_golden;
    case "torn write leaves previous snapshot intact" torn_write_leaves_previous_snapshot_intact;
    case "missing file raises Sys_error" missing_file_raises_sys_error;
    case "decoded REVL file replays as the live run" decoded_file_replays_as_live_clean;
    case "decoded REVL file replays as the live run under mixed faults"
      decoded_file_replays_as_live_mixed;
  ]
