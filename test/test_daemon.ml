(* The daemon stack's contracts, bottom-up:

   - [Io.write_all] survives EINTR/EAGAIN (nonblocking pipe with a slow
     reader) and [Io.write_atomic] never leaves a torn target — a crash
     mid-write keeps the previous contents bit-for-bit.
   - The wire protocol round-trips through the incremental dechunker at
     any chunking, and every malformation is a typed [Protocol_error].
   - [Multi_stream.fair_split] conserves every byte of an odd budget
     (qcheck, the rebalance-remainder bugfix).
   - Daemon lifecycle, against a forked server: disconnect/reconnect
     resumes bit-identically; SIGTERM mid-stream snapshots attached
     tenants and a restarted daemon resumes them; admission rejects are
     typed; backpressure on one tenant never stalls another; a tenant
     exhausted mid-stream still drains to its Fin (no read-pause
     deadlock); a control peer that never reads its replies stalls only
     itself (queued sends, not blocking writes); an abruptly dying
     client (SIGPIPE on the Result write) never kills the daemon, and a
     daemon closing mid-stream never SIGPIPE-kills the client. *)

module Spec = Regionsel_workload.Spec
module Suite = Regionsel_workload.Suite
module Image = Regionsel_workload.Image
module Simulator = Regionsel_engine.Simulator
module Branch_stream = Regionsel_engine.Branch_stream
module Multi_stream = Regionsel_engine.Multi_stream
module Policies = Regionsel_core.Policies
module Run_metrics = Regionsel_metrics.Run_metrics
module Persist = Regionsel_persist.Persist
module Io = Regionsel_persist.Io
module Metrics = Regionsel_obs.Metrics
module Proto = Regionsel_serve.Proto
module Server = Regionsel_serve.Server
module Client = Regionsel_serve.Client
open Fixtures

let policy_exn name = Option.get (Policies.find name)
let spec_exn name = Option.get (Suite.find name)

(* ---- Io: retries and atomic publication ---- *)

let write_all_survives_slow_nonblocking_reader () =
  let rd, wr = Unix.pipe ~cloexec:false () in
  Unix.set_nonblock wr;
  let payload = Bytes.init 600_000 (fun i -> Char.chr (i land 0xFF)) in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (* Slow reader: drain in small sips so the writer fills the pipe and
       hits EAGAIN repeatedly. *)
    Unix.close wr;
    let buf = Bytes.create 4096 in
    let total = ref 0 in
    let eof = ref false in
    while not !eof do
      (try ignore (Unix.select [ rd ] [] [] 0.001) with Unix.Unix_error _ -> ());
      match Unix.read rd buf 0 (Bytes.length buf) with
      | 0 -> eof := true
      | n -> total := !total + n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    Unix._exit (if !total = Bytes.length payload then 0 else 1)
  | pid ->
    Unix.close rd;
    Io.write_all wr payload ~pos:0 ~len:(Bytes.length payload);
    Unix.close wr;
    let _, status = Unix.waitpid [] pid in
    check_true "reader got every byte" (status = Unix.WEXITED 0)

let crash_mid_write_keeps_previous_contents () =
  let path = Filename.temp_file "regionsel" ".atomic" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp"))
    (fun () ->
      let old = "previous complete export\n" in
      Io.write_atomic ~path (Bytes.of_string old);
      (* Crash after 7 bytes of the replacement: the target must still
         hold the old contents, entire. *)
      Io.write_atomic ~crash_after_bytes:7 ~path (Bytes.of_string "replacement that never lands");
      let ic = open_in_bin path in
      let got = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "target untouched by the crashed write" old got)

let metrics_exports_publish_atomically () =
  (* The torn-export bugfix: exporters go through tmp+rename, so the
     published file parses completely and no .tmp residue remains. *)
  let spec = spec_exn "gzip" in
  let r = Metrics.create ~window:500 ~labels:[ ("tenant", "gzip") ] () in
  let sim =
    Simulator.create ~seed:1L ~policy:(policy_exn "net") ~max_steps:4000 (Spec.image spec)
  in
  Metrics.advance r sim ~upto:max_int;
  Metrics.finalize r (Simulator.finish sim);
  let path = Filename.temp_file "regionsel" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp"))
    (fun () ->
      Metrics.write_jsonl ~path (Metrics.windows r);
      check_true "no tmp residue" (not (Sys.file_exists (path ^ ".tmp")));
      let ic = open_in_bin path in
      let got = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "published bytes are the export" (Metrics.to_jsonl (Metrics.windows r)) got;
      Metrics.write_prometheus ~path (Metrics.windows r);
      check_true "no tmp residue after prometheus" (not (Sys.file_exists (path ^ ".tmp"))))

(* ---- Wire protocol ---- *)

let sample_msgs () =
  [
    Proto.Hello
      { h_tenant = "alpha"; h_bench = "gzip"; h_policy = "net"; h_seed = 7L;
        h_max_steps = 60000 };
    Proto.Fin;
    Proto.Ctrl "status";
    Proto.Welcome { resume_step = 12288; session = "alpha-00c0ffee.session" };
    Proto.Reject { code = Proto.Budget_saturated; detail = "floor 4096" };
    Proto.Result "{\"steps\": 1}";
    Proto.Data "pong";
    Proto.Events (Bytes.of_string "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00");
  ]

let msg_equal a b =
  match (a, b) with
  | Proto.Events x, Proto.Events y -> Bytes.equal x y
  | x, y -> x = y

let frames_roundtrip_at_any_chunking () =
  let msgs = sample_msgs () in
  let stream = Bytes.concat Bytes.empty (List.map Proto.encode msgs) in
  List.iter
    (fun chunk ->
      let d = Proto.Dechunker.create () in
      let got = ref [] in
      let pos = ref 0 in
      while !pos < Bytes.length stream do
        let len = min chunk (Bytes.length stream - !pos) in
        Proto.Dechunker.feed d stream ~pos:!pos ~len;
        pos := !pos + len;
        let rec drain () =
          match Proto.Dechunker.next d with
          | Some m ->
            got := m :: !got;
            drain ()
          | None -> ()
        in
        drain ()
      done;
      check_int
        (Printf.sprintf "all frames at chunk %d" chunk)
        (List.length msgs) (List.length !got);
      List.iter2
        (fun want have -> check_true "frame round-trips" (msg_equal want have))
        msgs (List.rev !got);
      check_int "nothing left buffered" 0 (Proto.Dechunker.pending d))
    [ 1; 3; 7; 4096 ]

(* One framed stream (the sample frames around a gzip recording cut into
   wire batches, about 60 KiB) read in chunks of 1 byte to 64 KiB, fixed
   and random, twice: landed straight in the buffer through [fill] and
   drained with [next_frame], and copied in through [feed] and drained
   with [next].  Both yield the same frames, the in-place Events bodies
   decode where they lie to the source recording, [pending] is what was
   read less the frames consumed, and a bad length prefix behind the
   stream still raises. *)
let fill_and_feed_yield_the_same_frames () =
  let spec = spec_exn "gzip" in
  let program = (Spec.image spec).Image.program in
  let events = Branch_stream.recorder () in
  ignore
    (Simulator.run ~seed:7L ~record:events ~policy:(policy_exn "net") ~max_steps:30_000
       (Spec.image spec));
  let n = Branch_stream.length events in
  let batches =
    List.init ((n + 999) / 1000) (fun k ->
        let pos = k * 1000 in
        Proto.Events
          (Regionsel_persist.Event_log.encode_batch ~program events ~pos ~len:(min 1000 (n - pos))))
  in
  let msgs = sample_msgs () @ batches @ sample_msgs () in
  let frames = List.map Proto.encode msgs in
  let stream = Bytes.concat Bytes.empty frames in
  let total = Bytes.length stream in
  let rng = Random.State.make [| 25 |] in
  let run what chunk =
    let a = Proto.Dechunker.create () and b = Proto.Dechunker.create () in
    let into = Branch_stream.recorder () in
    let got = ref [] and pos = ref 0 and consumed = ref 0 in
    let rec drain () =
      match (Proto.Dechunker.next_frame a, Proto.Dechunker.next b) with
      | None, None -> ()
      | Some frame, Some m ->
        let same =
          match (frame, m) with
          | Proto.Dechunker.Events_at { buf; pos; len }, Proto.Events body ->
            ignore
              (Regionsel_persist.Event_log.decode_batch ~pos ~len buf ~program ~into);
            Bytes.equal (Bytes.sub buf pos len) body
          | Proto.Dechunker.Msg x, y -> msg_equal x y
          | Proto.Dechunker.Events_at _, _ -> false
        in
        if not same then Alcotest.failf "%s: next_frame and next disagree on a frame" what;
        consumed := !consumed + Bytes.length (Proto.encode m);
        got := m :: !got;
        drain ()
      | _ -> Alcotest.failf "%s: one dechunker has a frame the other lacks" what
    in
    while !pos < total do
      let want = min (chunk ()) (total - !pos) in
      (* A short read: room for more than lands. *)
      let landed =
        Proto.Dechunker.fill a ~max:(want + Random.State.int rng 100) (fun buf at _ ->
            Bytes.blit stream !pos buf at want;
            want)
      in
      check_int (what ^ ": fill lands what was asked") want landed;
      Proto.Dechunker.feed b stream ~pos:!pos ~len:want;
      pos := !pos + want;
      drain ();
      check_int (what ^ ": pending after fill") (!pos - !consumed) (Proto.Dechunker.pending a);
      check_int (what ^ ": pending after feed") (!pos - !consumed) (Proto.Dechunker.pending b)
    done;
    check_int (what ^ ": every frame") (List.length msgs) (List.length !got);
    List.iter2
      (fun want have -> check_true (what ^ ": frame round-trips") (msg_equal want have))
      msgs (List.rev !got);
    check_true (what ^ ": in-place bodies rebuild the recording")
      (Branch_stream.equal events into);
    check_int (what ^ ": nothing left") 0 (Proto.Dechunker.pending a);
    let bad = Bytes.of_string "\xFF\xFF\xFF\xFF\x01" in
    ignore
      (Proto.Dechunker.fill a ~max:5 (fun buf at _ ->
           Bytes.blit bad 0 buf at 5;
           5));
    Proto.Dechunker.feed b bad ~pos:0 ~len:5;
    (match Proto.Dechunker.next_frame a with
    | _ -> Alcotest.failf "%s: next_frame took a bad length prefix" what
    | exception Proto.Protocol_error _ -> ());
    match Proto.Dechunker.next b with
    | _ -> Alcotest.failf "%s: next took a bad length prefix" what
    | exception Proto.Protocol_error _ -> ()
  in
  List.iter
    (fun k -> run (Printf.sprintf "chunk %d" k) (fun () -> k))
    [ 1; 2; 5; 97; 4096; 8191; 65536 ];
  run "random chunks" (fun () -> 1 + Random.State.int rng 65536);
  run "small random chunks" (fun () -> 1 + Random.State.int rng 300)

let truncated_frame_is_pending_not_error () =
  let frame = Proto.encode Proto.Fin in
  let d = Proto.Dechunker.create () in
  Proto.Dechunker.feed d frame ~pos:0 ~len:(Bytes.length frame - 1);
  check_true "incomplete frame yields none" (Proto.Dechunker.next d = None);
  Proto.Dechunker.feed d frame ~pos:(Bytes.length frame - 1) ~len:1;
  check_true "completing the frame yields it" (Proto.Dechunker.next d = Some Proto.Fin)

let corrupt_frames_raise_protocol_error () =
  let expect_error what bytes =
    let d = Proto.Dechunker.create () in
    Proto.Dechunker.feed d bytes ~pos:0 ~len:(Bytes.length bytes);
    match
      let rec drain () =
        match Proto.Dechunker.next d with Some _ -> drain () | None -> ()
      in
      drain ()
    with
    | () -> Alcotest.failf "%s: decoded without error" what
    | exception Proto.Protocol_error _ -> ()
  in
  expect_error "zero length prefix" (Bytes.of_string "\x00\x00\x00\x00");
  expect_error "oversized length prefix" (Bytes.of_string "\xFF\xFF\xFF\xFF\x01");
  expect_error "unknown kind" (Bytes.of_string "\x00\x00\x00\x01\x63");
  (* A Hello whose tenant string runs past the frame end. *)
  expect_error "truncated hello string"
    (Bytes.of_string "\x00\x00\x00\x06\x01\x00\x00\x00\x40\x61");
  (* A Data frame with trailing junk after its payload. *)
  let data = Proto.encode (Proto.Data "x") in
  let inflated = Bytes.copy data in
  Bytes.set inflated 3 (Char.chr (Char.code (Bytes.get data 3) + 2));
  expect_error "trailing bytes" (Bytes.cat inflated (Bytes.of_string "zz"));
  (* A u64 whose high word a legitimate encoder can never produce
     (bu64 masks to 0x7FFFFFFF; OCaml ints keep hi <= 0x3FFFFFFF): on a
     63-bit int it would wrap or go negative, so it must be rejected.
     Here: a Welcome whose resume_step has hi = 0x40000000. *)
  expect_error "out-of-range u64"
    (Bytes.of_string
       "\x00\x00\x00\x0E\x0A\x40\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x78")

let large_export_reply_roundtrips () =
  (* Export replies (Data, Result) carry whole Prometheus/JSONL
     snapshots — far past [max_string]; they get the frame budget. *)
  let text = String.init 200_000 (fun i -> Char.chr (32 + (i mod 90))) in
  let frame = Proto.encode (Proto.Data text) in
  match Proto.decode_frame frame ~pos:4 ~len:(Bytes.length frame - 4) with
  | Proto.Data got -> Alcotest.(check string) "large data round-trips" text got
  | _ -> Alcotest.fail "expected a Data frame"

(* ---- fair_split conservation (the rebalance remainder bugfix) ---- *)

let qcheck_fair_split_conserves =
  QCheck.Test.make ~name:"fair_split conserves odd budgets exactly" ~count:500
    QCheck.(
      pair (int_range 0 1_000_003)
        (list_of_size Gen.(int_range 1 17) (int_range 0 200_000)))
    (fun (avail, used_list) ->
      let used = Array.of_list used_list in
      let quotas, slack = Multi_stream.fair_split ~avail used in
      let n = Array.length used in
      let fair = avail / n and rem = avail mod n in
      let sum = Array.fold_left ( + ) 0 quotas in
      sum = avail + slack
      && slack >= 0
      && Array.for_all (fun q -> q >= 0) quotas
      && Array.mapi (fun i q -> q >= fair + (if i < rem then 1 else 0)) quotas
         |> Array.for_all Fun.id)

(* ---- Backpressure hysteresis ---- *)

let backpressure_hysteresis_has_no_flap () =
  check_true "reads below high" (Server.wants_read ~backlog:1023 ~high:1024 ~paused:false);
  check_true "pauses at high" (not (Server.wants_read ~backlog:1024 ~high:1024 ~paused:false));
  check_true "stays paused above low"
    (not (Server.wants_read ~backlog:600 ~high:1024 ~paused:true));
  check_true "resumes at low" (Server.wants_read ~backlog:512 ~high:1024 ~paused:true)

(* ---- Daemon lifecycle (forked server) ---- *)

let astring_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Poll until [cond] holds — daemon-side effects (snapshots on
   disconnect) land asynchronously to the client's view. *)
let eventually ?(timeout = 5.0) cond =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if cond () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

let fresh_dir () =
  let dir = Filename.temp_file "regionsel" ".daemon" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let start_daemon ?(ingest_max = 1 lsl 16) ?max_tenants ?metrics_keep ~dir () =
  let socket_path = Filename.concat dir "d.sock" in
  let cfg = Server.default_config ~socket_path ~state_dir:(Filename.concat dir "state") in
  let cfg =
    { cfg with
      Server.batch_steps = 1024;
      ingest_max;
      n_domains = Some 2;
      max_tenants = Option.value max_tenants ~default:cfg.Server.max_tenants;
      metrics_keep = Option.value metrics_keep ~default:cfg.Server.metrics_keep
    }
  in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try Server.serve cfg with _ -> Unix._exit 1);
    Unix._exit 0
  | pid ->
    (* Wait for the socket to come up. *)
    let rec wait n =
      if n = 0 then Alcotest.fail "daemon socket never appeared";
      if not (Sys.file_exists socket_path) then begin
        Unix.sleepf 0.02;
        wait (n - 1)
      end
    in
    wait 500;
    (pid, socket_path)

(* SIGTERM, then SIGKILL if the daemon has not exited within 10 s, so a
   daemon that stopped serving cannot hang the teardown either. *)
let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec wait n =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when n > 0 ->
      Unix.sleepf 0.02;
      wait (n - 1)
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      snd (Unix.waitpid [] pid)
    | _, status -> status
  in
  wait 500

(* The lifecycle tests read the daemon's replies with blocking reads
   ([Proto.read_msg] and the [Client] helpers, whose sockets the tests
   never see).  Each runs under a deadline: a one-shot real-time timer
   whose SIGALRM raises out of whatever read is still blocked, so a daemon
   that stops answering fails the test instead of hanging the suite.
   Every lifecycle test finishes in a few seconds. *)
exception Deadline

let deadline_s = 30.0

let with_deadline f () =
  let arm s = ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = s }) in
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Deadline)) in
  arm deadline_s;
  match Fun.protect ~finally:(fun () -> arm 0.0; Sys.set_signal Sys.sigalrm previous) f with
  | () -> ()
  | exception Deadline -> Alcotest.failf "no reply from the daemon within %.0f s" deadline_s

let with_daemon ?ingest_max ?max_tenants ?metrics_keep f =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let pid, socket_path = start_daemon ?ingest_max ?max_tenants ?metrics_keep ~dir () in
      Fun.protect
        ~finally:(fun () -> ignore (stop_daemon pid))
        (fun () -> f ~dir ~socket_path))

let bench = "gzip"
let seed = 7L
let steps = 8000

let record_events max_steps =
  lazy
    (let events = Branch_stream.recorder () in
     ignore
       (Simulator.run ~seed ~record:events ~policy:(policy_exn "net") ~max_steps
          (Spec.image (spec_exn bench)));
     events)

let recorded_events = record_events steps

let solo_json ?(max_steps = steps) ?(policy = "net") ?(events = recorded_events) () =
  let spec = spec_exn bench in
  let result =
    Simulator.run ~seed ~replay:(Lazy.force events) ~policy:(policy_exn policy) ~max_steps
      (Spec.image spec)
  in
  Run_metrics.to_json (Run_metrics.of_result result)

let program () = (Spec.image (spec_exn bench)).Image.program

let stream ?chunk ?truncate_at ~socket_path ~tenant () =
  Client.stream_events ?chunk ?truncate_at ~socket_path ~tenant ~bench ~policy:"net" ~seed
    ~max_steps:steps ~program:(program ()) (Lazy.force recorded_events)

let streamed_result_matches_solo_run () =
  with_daemon (fun ~dir:_ ~socket_path ->
      match stream ~socket_path ~tenant:"alpha" () with
      | Client.Finished json ->
        Alcotest.(check string) "daemon result = solo replay" (solo_json ()) json
      | Client.Truncated _ -> Alcotest.fail "unexpected truncation")

let disconnect_then_reconnect_is_bit_identical () =
  with_daemon (fun ~dir ~socket_path ->
      (match stream ~socket_path ~tenant:"alpha" ~truncate_at:3000 () with
      | Client.Truncated n -> check_true "sent a prefix" (n > 0)
      | Client.Finished _ -> Alcotest.fail "truncated stream finished");
      (* The disconnect snapshotted the session. *)
      let state = Filename.concat dir "state" in
      check_true "session snapshot exists"
        (eventually (fun () ->
             Array.exists
               (fun f -> Filename.check_suffix f ".session")
               (Sys.readdir state)));
      match stream ~socket_path ~tenant:"alpha" () with
      | Client.Finished json ->
        Alcotest.(check string) "resumed result = solo replay" (solo_json ()) json;
        check_true "spent snapshot removed"
          (not
             (Array.exists
                (fun f -> Filename.check_suffix f ".session")
                (Sys.readdir state)))
      | Client.Truncated _ -> Alcotest.fail "unexpected truncation")

let hello_alpha =
  Proto.Hello
    { h_tenant = "alpha"; h_bench = bench; h_policy = "net"; h_seed = seed;
      h_max_steps = steps }

(* Start a daemon over [dir], attach "alpha" and stream its first 3000
   events, then SIGTERM the daemon with the connection still OPEN — so the
   SIGTERM path (not the disconnect path) must snapshot the tenant. *)
let sigterm_mid_stream ~dir =
  let pid, socket_path = start_daemon ~dir () in
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  Proto.write_msg fd hello_alpha;
  (match Proto.read_msg fd with
  | Some (Proto.Welcome { resume_step = 0; _ }) -> ()
  | _ -> Alcotest.fail "expected a fresh welcome");
  let events = Lazy.force recorded_events in
  let body = Regionsel_persist.Event_log.encode_batch ~program:(program ()) events ~pos:0 ~len:3000 in
  Proto.write_msg fd (Proto.Events body);
  (* Let the engine ingest and advance a little before the kill. *)
  Unix.sleepf 0.3;
  let status = stop_daemon pid in
  check_true "daemon exited cleanly on SIGTERM" (status = Unix.WEXITED 0);
  Unix.close fd;
  check_true "SIGTERM snapshotted the attached tenant"
    (Array.exists
       (fun f -> Filename.check_suffix f ".session")
       (Sys.readdir (Filename.concat dir "state")))

let with_restarted_daemon f =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      sigterm_mid_stream ~dir;
      let pid, socket_path = start_daemon ~dir () in
      Fun.protect ~finally:(fun () -> ignore (stop_daemon pid)) (fun () -> f ~socket_path))

let sigterm_snapshots_and_restart_resumes () =
  (* Restart over the same state dir; the tenant resumes and finishes
     bit-identically to an uninterrupted run. *)
  with_restarted_daemon (fun ~socket_path ->
      match stream ~socket_path ~tenant:"alpha" () with
      | Client.Finished json ->
        Alcotest.(check string) "restarted daemon resumes bit-identically" (solo_json ())
          json
      | Client.Truncated _ -> Alcotest.fail "unexpected truncation")

let restarted_daemon_windows_start_at_resume_step () =
  (* The restarted daemon's recorder is new, but its run is not: the first
     window must open at the resumed step, not cover the history before. *)
  with_restarted_daemon (fun ~socket_path ->
      let resume_step =
        Client.with_connection ~socket_path (fun fd ->
            Proto.write_msg fd hello_alpha;
            match Proto.read_msg fd with
            | Some (Proto.Welcome { resume_step; _ }) ->
              let body =
                Regionsel_persist.Event_log.encode_batch ~program:(program ())
                  (Lazy.force recorded_events) ~pos:resume_step ~len:(steps - resume_step)
              in
              Proto.write_msg fd (Proto.Events body);
              Proto.write_msg fd Proto.Fin;
              ignore (Proto.read_msg fd : Proto.msg option) (* the Result *);
              resume_step
            | _ -> Alcotest.fail "expected a welcome")
      in
      check_true "the session resumed past step 0" (resume_step > 0);
      match Client.ctrl ~socket_path "jsonl" with
      | Ok text ->
        Scanf.sscanf text
          ("{\"series\":\"steps\",\"labels\":{%_[^}]},\"window\":0,"
          ^^ "\"start_step\":%d,\"end_step\":%d,\"value\":%d}")
          (fun start stop steps ->
            check_int "first window starts at the resume step" resume_step start;
            check_int "first window's steps cover only the resumed run" (stop - start) steps)
      | Error _ -> Alcotest.fail "jsonl export failed")

let admission_rejects_are_typed () =
  with_daemon ~max_tenants:1 (fun ~dir:_ ~socket_path ->
      (* Hold one tenant attached on a raw connection. *)
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket_path);
          Proto.write_msg fd
            (Proto.Hello
               { h_tenant = "alpha"; h_bench = bench; h_policy = "net"; h_seed = seed;
                 h_max_steps = steps });
          (match Proto.read_msg fd with
          | Some (Proto.Welcome _) -> ()
          | _ -> Alcotest.fail "expected a welcome");
          (* Same tenant name again: busy. *)
          (match stream ~socket_path ~tenant:"alpha" () with
          | exception Client.Rejected { code = Proto.Busy_tenant; _ } -> ()
          | _ -> Alcotest.fail "expected a busy-tenant reject");
          (* A second tenant: slots are full. *)
          (match stream ~socket_path ~tenant:"beta" () with
          | exception Client.Rejected { code = Proto.Tenants_saturated; _ } -> ()
          | _ -> Alcotest.fail "expected a tenants-saturated reject");
          (* An unknown bench is rejected before admission. *)
          match
            Client.stream_events ~socket_path ~tenant:"gamma" ~bench:"nonesuch"
              ~policy:"net" ~seed ~max_steps:steps ~program:(program ())
              (Lazy.force recorded_events)
          with
          | exception Client.Rejected { code = Proto.Unknown_bench; _ } -> ()
          | _ -> Alcotest.fail "expected an unknown-bench reject"))

let backpressured_tenant_does_not_stall_others () =
  (* A tiny ingest bound forces the slow tenant's connection out of the
     read set while a second tenant streams to completion. *)
  with_daemon ~ingest_max:256 (fun ~dir:_ ~socket_path ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket_path);
          Proto.write_msg fd
            (Proto.Hello
               { h_tenant = "slow"; h_bench = bench; h_policy = "net"; h_seed = seed;
                 h_max_steps = steps });
          (match Proto.read_msg fd with
          | Some (Proto.Welcome _) -> ()
          | _ -> Alcotest.fail "expected a welcome");
          (* Flood well past the ingest bound, then stall without Fin. *)
          let events = Lazy.force recorded_events in
          let body =
            Regionsel_persist.Event_log.encode_batch ~program:(program ()) events ~pos:0
              ~len:(Branch_stream.length events)
          in
          Proto.write_msg fd (Proto.Events body);
          (* The other tenant must finish normally meanwhile. *)
          match stream ~socket_path ~tenant:"fast" () with
          | Client.Finished json ->
            Alcotest.(check string) "fast tenant unaffected" (solo_json ()) json
          | Client.Truncated _ -> Alcotest.fail "unexpected truncation"))

let long_steps = 200_000
let long_events = record_events long_steps

(* [status]'s "ingest live <n> pooled <n> slots <total>" line. *)
let ingest_status ~socket_path =
  match Client.ctrl ~socket_path "status" with
  | Ok text -> (
    match
      List.find_map
        (fun l ->
          Scanf.sscanf_opt l "ingest live %d pooled %d slots %d" (fun a b c -> (a, b, c)))
        (String.split_on_char '\n' text)
    with
    | Some line -> line
    | None -> Alcotest.fail "status lacks the ingest line")
  | Error _ -> Alcotest.fail "status failed"

(* The documented bound on one ingest buffer: reads happen only below
   [ingest_max] unconsumed events, each takes at most the headroom's
   worth of bytes or 4 KiB, and the frame a read completes (4096 events,
   the client's chunk) may have started before it.  A recording grows
   only when that much does not fit, so it stays below twice the sum. *)
let ingest_slot_bound ~ingest_max =
  let bits = Regionsel_persist.Event_log.event_bits (program ()) in
  2 * (ingest_max + (4096 * 8 / bits) + 4096)

let exhausted_tenant_still_drains_and_finishes () =
  (* A step budget far smaller than the recording: the simulation
     exhausts mid-stream with a backlog that can never drain.  The daemon
     must keep reading past the ingest bound so the Fin behind the
     leftover events arrives and the tenant finishes — formerly a
     permanent read-pause deadlock with the loop busy-spinning on a zero
     select timeout.  The leftover events are validated and dropped, not
     stored: the buffer stays within the ingest bound, where keeping them
     grew it to the whole 200k-event recording. *)
  let max_steps = 1000 and ingest_max = 256 in
  with_daemon ~ingest_max (fun ~dir:_ ~socket_path ->
      (match
         Client.stream_events ~socket_path ~tenant:"short" ~bench ~policy:"net" ~seed
           ~max_steps ~program:(program ()) (Lazy.force long_events)
       with
      | Client.Finished json ->
        Alcotest.(check string) "exhausted tenant result = solo run"
          (solo_json ~max_steps ()) json
      | Client.Truncated _ -> Alcotest.fail "unexpected truncation");
      let _, _, slots = ingest_status ~socket_path in
      let bound = ingest_slot_bound ~ingest_max in
      check_true (Printf.sprintf "%d ingest slots <= %d" slots bound) (slots <= bound))

let long_session_stays_within_the_ingest_bound () =
  (* One session of 200k events behind a 4096-event ingest bound: the
     daemon releases what the simulation consumed before each decode and
     compacts instead of growing, so its one buffer stays within the
     bound, and the Result is still the solo replay's. *)
  let ingest_max = 4096 in
  with_daemon ~ingest_max (fun ~dir:_ ~socket_path ->
      (match
         Client.stream_events ~socket_path ~tenant:"long" ~bench ~policy:"net" ~seed
           ~max_steps:long_steps ~program:(program ()) (Lazy.force long_events)
       with
      | Client.Finished json ->
        Alcotest.(check string) "long session = solo replay"
          (solo_json ~max_steps:long_steps ~events:long_events ()) json
      | Client.Truncated _ -> Alcotest.fail "unexpected truncation");
      let live, pooled, slots = ingest_status ~socket_path in
      check_int "no live buffer after the Result" 0 live;
      check_int "the session's buffer went back to the pool" 1 pooled;
      let bound = ingest_slot_bound ~ingest_max in
      check_true (Printf.sprintf "%d ingest slots <= %d" slots bound) (slots <= bound);
      (* A second session reuses the pooled buffer instead of adding one. *)
      (match stream ~socket_path ~tenant:"again" () with
      | Client.Finished json -> Alcotest.(check string) "pooled buffer replays" (solo_json ()) json
      | Client.Truncated _ -> Alcotest.fail "unexpected truncation");
      let _, pooled', slots' = ingest_status ~socket_path in
      check_int "still one pooled buffer" 1 pooled';
      check_int "no new slots" slots slots')

let stalled_control_reader_does_not_stall_the_daemon () =
  with_daemon (fun ~dir:_ ~socket_path ->
      (* Populate the recorders so export replies have real bulk. *)
      (match stream ~socket_path ~tenant:"alpha" () with
      | Client.Finished _ -> ()
      | Client.Truncated _ -> Alcotest.fail "unexpected truncation");
      let reply =
        match Client.ctrl ~socket_path "jsonl" with
        | Ok text when String.length text > 0 -> text
        | _ -> Alcotest.fail "jsonl export failed"
      in
      (* Enough unread replies to overflow any kernel socket buffer: the
         daemon must queue them per connection and keep serving — with
         blocking sends, the first full buffer would stall every
         tenant. *)
      let n = min 2000 (max 8 (1_500_000 / String.length reply)) in
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket_path);
          for _ = 1 to n do
            Proto.write_msg fd (Proto.Ctrl "jsonl")
          done;
          (* While those replies sit queued, another tenant streams to
             completion. *)
          (match stream ~socket_path ~tenant:"beta" () with
          | Client.Finished json ->
            Alcotest.(check string) "tenant unaffected by a stalled reader"
              (solo_json ()) json
          | Client.Truncated _ -> Alcotest.fail "unexpected truncation");
          (* The stalled reader wakes up: every reply was kept. *)
          for i = 1 to n do
            match Proto.read_msg fd with
            | Some (Proto.Data _) -> ()
            | _ -> Alcotest.failf "reply %d of %d missing or malformed" i n
          done))

let daemon_close_mid_stream_surfaces_as_error () =
  (* The daemon rejects corrupt events and closes; the client keeps
     writing.  With SIGPIPE at its default the client process would be
     killed silently — the client driver must ignore it so the broken
     pipe surfaces as an exception (and the Reject stays readable). *)
  with_daemon (fun ~dir:_ ~socket_path ->
      Client.with_connection ~socket_path (fun fd ->
          Proto.write_msg fd
            (Proto.Hello
               { h_tenant = "noisy"; h_bench = bench; h_policy = "net"; h_seed = seed;
                 h_max_steps = steps });
          (match Proto.read_msg fd with
          | Some (Proto.Welcome _) -> ()
          | _ -> Alcotest.fail "expected a welcome");
          Proto.write_msg fd (Proto.Events (Bytes.make 64 '\xAB'));
          let junk = Proto.encode (Proto.Events (Bytes.make 65536 '\xAB')) in
          match
            for _ = 1 to 4096 do
              Regionsel_persist.Io.write_all fd junk ~pos:0 ~len:(Bytes.length junk)
            done
          with
          | () -> Alcotest.fail "writes to a closed daemon kept succeeding"
          | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()))

let dying_client_never_kills_the_daemon () =
  with_daemon (fun ~dir:_ ~socket_path ->
      (* Die right after Fin, before reading Result: the daemon's Result
         write hits a dead peer (EPIPE with SIGPIPE ignored). *)
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket_path);
      Proto.write_msg fd
        (Proto.Hello
           { h_tenant = "ghost"; h_bench = bench; h_policy = "net"; h_seed = seed;
             h_max_steps = steps });
      (match Proto.read_msg fd with
      | Some (Proto.Welcome _) -> ()
      | _ -> Alcotest.fail "expected a welcome");
      let events = Lazy.force recorded_events in
      let body =
        Regionsel_persist.Event_log.encode_batch ~program:(program ()) events ~pos:0
          ~len:(Branch_stream.length events)
      in
      Proto.write_msg fd (Proto.Events body);
      Proto.write_msg fd Proto.Fin;
      Unix.close fd;
      (* Garbage on a fresh connection must also only cost that
         connection. *)
      let fd2 = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd2 (Unix.ADDR_UNIX socket_path);
      ignore (Unix.write fd2 (Bytes.of_string "\xFF\xFF\xFF\xFF garbage") 0 12);
      Unix.close fd2;
      (* Give the daemon time to process both, then prove it's alive. *)
      Unix.sleepf 0.3;
      match Client.ctrl ~socket_path "ping" with
      | Ok "pong" -> ()
      | _ -> Alcotest.fail "daemon died or misanswered after client deaths")

let control_surface_serves_live_exports () =
  with_daemon (fun ~dir:_ ~socket_path ->
      (match stream ~socket_path ~tenant:"alpha" () with
      | Client.Finished _ -> ()
      | Client.Truncated _ -> Alcotest.fail "unexpected truncation");
      (match Client.ctrl ~socket_path "prom" with
      | Ok text ->
        check_true "prometheus names the tenant"
          (astring_contains text "tenant=\"alpha\"");
        check_true "prometheus has steps series" (astring_contains text "regionsel_steps")
      | _ -> Alcotest.fail "prom scrape failed");
      (match Client.ctrl ~socket_path "jsonl 2" with
      | Ok text -> check_true "jsonl tail is json records" (astring_contains text "\"series\"")
      | _ -> Alcotest.fail "jsonl tail failed");
      match Client.ctrl ~socket_path "status" with
      | Ok text -> check_true "status reports rounds" (astring_contains text "rounds")
      | _ -> Alcotest.fail "status failed")

let reused_tenant_name_starts_a_fresh_recorder () =
  (* A run under a tenant name whose recorder is still held gets that
     recorder back only when it resumes that very run.  Any other holder
     has a stale policy label and a baseline at its own last step, which
     zeroed the new run's first window.  The runs cover a finished
     predecessor, a detached one of another policy, and a resume after
     another policy's run took the name over. *)
  with_daemon (fun ~dir ~socket_path ->
      let state = Filename.concat dir "state" in
      let run ?truncate_at policy =
        Client.stream_events ?truncate_at ~socket_path ~tenant:"alpha" ~bench ~policy ~seed
          ~max_steps:steps ~program:(program ()) (Lazy.force recorded_events)
      in
      let finish policy =
        match run policy with
        | Client.Finished json ->
          Alcotest.(check string) (policy ^ " run = solo replay") (solo_json ~policy ()) json
        | Client.Truncated _ -> Alcotest.fail "unexpected truncation"
      in
      let drop policy ~at =
        (match run ~truncate_at:at policy with
        | Client.Truncated _ -> ()
        | Client.Finished _ -> Alcotest.fail "truncated stream finished");
        let snap = Persist.session_file ~dir:state ~tenant:"alpha" ~bench ~policy ~seed in
        check_true (policy ^ " run snapshotted") (eventually (fun () -> Sys.file_exists snap))
      in
      (* (policy, window, start_step, end_step, steps) of each steps record. *)
      let steps_windows cmd =
        match Client.ctrl ~socket_path cmd with
        | Ok text ->
          List.filter_map
            (fun l ->
              Scanf.sscanf_opt l
                ("{\"series\":\"steps\",\"labels\":{\"tenant\":\"alpha\",\"policy\":\"%[^\"]\","
                ^^ "\"dispatch\":\"threaded\"},\"window\":%d,"
                ^^ "\"start_step\":%d,\"end_step\":%d,\"value\":%d}")
                (fun p w a b v -> (p, w, a, b, v)))
            (String.split_on_char '\n' text)
        | Error _ -> Alcotest.failf "%s export failed" cmd
      in
      finish "net";
      finish "lei";
      drop "net" ~at:3000;
      drop "lei" ~at:2000;
      finish "net";
      let ws = steps_windows "jsonl" in
      List.iter
        (fun (p, w, a, b, v) ->
          check_int (Printf.sprintf "%s window %d: steps cover the window" p w) (b - a) v)
        ws;
      let firsts = List.filter_map (fun (p, w, a, _, v) -> if w = 0 then Some (p, a, v) else None) ws in
      (match firsts with
      | [ ("net", 0, _); ("lei", 0, lei_steps); ("net", 0, _); ("lei", 0, _); ("net", resume, _) ] ->
        check_true "second run's first window counts steps" (lei_steps > 0);
        check_true "resumed run opens at its resume step" (resume > 0 && resume <= 3000)
      | _ ->
        Alcotest.failf "first windows, in export order: %s"
          (String.concat " "
             (List.map (fun (p, a, _) -> Printf.sprintf "%s@%d" p a) firsts)));
      (* Two finished runs of one label set in a row stay two runs. *)
      finish "net";
      Alcotest.(check (list string))
        "jsonl 1 keeps each run's newest window"
        [ "net"; "lei"; "net"; "lei"; "net"; "net" ]
        (List.map (fun (p, _, _, _, _) -> p) (steps_windows "jsonl 1")))

let short_steps = 1500
let short_events = record_events short_steps

(* [status]'s "recorders <live> retired_windows <n>" line. *)
let status_bound ~socket_path =
  match Client.ctrl ~socket_path "status" with
  | Ok text -> (
    match
      List.find_map
        (fun l -> Scanf.sscanf_opt l "recorders %d retired_windows %d" (fun a b -> (a, b)))
        (String.split_on_char '\n' text)
    with
    | Some bound -> bound
    | None -> Alcotest.fail "status lacks the recorders line")
  | Error _ -> Alcotest.fail "status failed"

let retention_stays_bounded_over_hundreds_of_sessions () =
  (* Hundreds of short sessions under unique tenants, every 4th dropped
     mid-stream and resumed after the next session: the recorder table
     holds only unfinished tenants, the retired ring at most
     [metrics_keep] windows, so the prom reply stops growing. *)
  let keep = 16 and n = 300 in
  with_daemon ~metrics_keep:keep (fun ~dir ~socket_path ->
      let state = Filename.concat dir "state" in
      let solo = solo_json ~max_steps:short_steps ~events:short_events () in
      let run ?truncate_at tenant =
        Client.stream_events ?truncate_at ~socket_path ~tenant ~bench ~policy:"net" ~seed
          ~max_steps:short_steps ~program:(program ()) (Lazy.force short_events)
      in
      let finish tenant =
        match run tenant with
        | Client.Finished json ->
          Alcotest.(check string) (tenant ^ " result = solo replay") solo json
        | Client.Truncated _ -> Alcotest.fail "unexpected truncation"
      in
      let detached = ref None in
      let prom_sizes = ref [] in
      for i = 0 to n - 1 do
        let tenant = Printf.sprintf "t%03d" i in
        if i mod 4 = 3 then begin
          (match run ~truncate_at:700 tenant with
          | Client.Truncated _ -> ()
          | Client.Finished _ -> Alcotest.fail "truncated stream finished");
          let snap =
            Persist.session_file ~dir:state ~tenant ~bench ~policy:"net" ~seed
          in
          check_true (tenant ^ " snapshotted") (eventually (fun () -> Sys.file_exists snap));
          detached := Some tenant
        end
        else begin
          finish tenant;
          Option.iter finish !detached;
          detached := None
        end;
        if (i + 1) mod 50 = 0 then begin
          let recorders, retired = status_bound ~socket_path in
          let unfinished = if Option.is_some !detached then 1 else 0 in
          check_true
            (Printf.sprintf "after %d sessions: %d recorders <= %d unfinished" (i + 1)
               recorders unfinished)
            (recorders <= unfinished);
          check_true
            (Printf.sprintf "after %d sessions: %d retired windows <= %d" (i + 1) retired keep)
            (retired > 0 && retired <= keep);
          match Client.ctrl ~socket_path "prom" with
          | Ok text -> prom_sizes := String.length text :: !prom_sizes
          | Error _ -> Alcotest.fail "prom scrape failed"
        end
      done;
      Option.iter finish !detached;
      (match List.rev !prom_sizes with
      | first :: rest ->
        List.iter
          (fun size ->
            check_true
              (Printf.sprintf "prom reply %d bytes stays within 1.25x of %d" size first)
              (4 * size <= 5 * first))
          rest
      | [] -> Alcotest.fail "no prom scrape");
      check_true "no session file outlives its finished session"
        (not (Array.exists (fun f -> Filename.check_suffix f ".session") (Sys.readdir state)));
      check_int "no recorder outlives its finished session" 0 (fst (status_bound ~socket_path));
      (* Exports render the ring: all of it, or each tenant's newest N. *)
      let label_sets cmd =
        match Client.ctrl ~socket_path cmd with
        | Ok text ->
          List.filter_map
            (fun l ->
              if String.starts_with ~prefix:"{\"series\":\"steps\"," l then
                Some (List.hd (String.split_on_char '}' l))
              else None)
            (String.split_on_char '\n' text)
        | Error _ -> Alcotest.failf "%s export failed" cmd
      in
      check_int "jsonl holds exactly the full ring" keep (List.length (label_sets "jsonl"));
      let tails = label_sets "jsonl 1" in
      check_true "jsonl 1 keeps one window per retired tenant"
        (List.length tails < keep
        && List.length (List.sort_uniq String.compare tails) = List.length tails))

let lifecycle name f = case name (with_deadline f)

let suite =
  [
    case "write_all survives a slow nonblocking reader" write_all_survives_slow_nonblocking_reader;
    case "crash mid-write keeps previous contents" crash_mid_write_keeps_previous_contents;
    case "metrics exports publish atomically" metrics_exports_publish_atomically;
    case "frames round-trip at any chunking" frames_roundtrip_at_any_chunking;
    case "fill and feed yield the same frames" fill_and_feed_yield_the_same_frames;
    case "truncated frame is pending, not an error" truncated_frame_is_pending_not_error;
    case "corrupt frames raise protocol errors" corrupt_frames_raise_protocol_error;
    case "large export replies round-trip" large_export_reply_roundtrips;
    QCheck_alcotest.to_alcotest qcheck_fair_split_conserves;
    case "backpressure hysteresis has no flap" backpressure_hysteresis_has_no_flap;
    lifecycle "streamed result matches the solo run" streamed_result_matches_solo_run;
    lifecycle "disconnect then reconnect is bit-identical" disconnect_then_reconnect_is_bit_identical;
    lifecycle "SIGTERM snapshots; restart resumes" sigterm_snapshots_and_restart_resumes;
    lifecycle "restarted daemon's windows start at the resume step"
      restarted_daemon_windows_start_at_resume_step;
    lifecycle "admission rejects are typed" admission_rejects_are_typed;
    lifecycle "backpressured tenant does not stall others" backpressured_tenant_does_not_stall_others;
    lifecycle "exhausted tenant still drains and finishes" exhausted_tenant_still_drains_and_finishes;
    lifecycle "long session stays within the ingest bound" long_session_stays_within_the_ingest_bound;
    lifecycle "stalled control reader does not stall the daemon" stalled_control_reader_does_not_stall_the_daemon;
    lifecycle "daemon close mid-stream surfaces as an error" daemon_close_mid_stream_surfaces_as_error;
    lifecycle "dying client never kills the daemon" dying_client_never_kills_the_daemon;
    lifecycle "control surface serves live exports" control_surface_serves_live_exports;
    lifecycle "reused tenant name starts a fresh recorder" reused_tenant_name_starts_a_fresh_recorder;
    lifecycle "retention stays bounded over hundreds of sessions"
      retention_stays_bounded_over_hundreds_of_sessions;
  ]
