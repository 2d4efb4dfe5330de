(* The streaming region-selection daemon.

   One process, one Unix-domain listening socket, one event loop.  Each
   client connection either streams a tenant (Hello, Events*, Fin) or
   issues control commands (Ctrl) — see [Proto].  Tenant simulations are
   multiplexed through [Multi_stream.Engine]: between socket activity the
   loop runs batch-barrier rounds, each tenant bounded by the events its
   connection has ingested so far, so a replay stream is never run dry
   (which would falsely read as a program halt).

   Flow control is two-sided.  Admission control answers Hello with a
   typed Reject when tenant slots or the shared cache budget saturate
   (the engine's typed admission rejects).  Backpressure bounds each
   connection's ingest backlog: when a tenant's unconsumed events reach
   [ingest_max], the loop simply stops selecting its socket for reads —
   the kernel buffer fills and the client's writes block; reads resume
   once the backlog drains to half the bound (hysteresis, so a tenant
   hovering at the bound does not flap in and out of the read set).  An
   exhausted simulation (step budget spent, or the program halted) is
   the one exception: it can never drain its backlog, so its connection
   is never paused — each remaining batch is validated and released at
   once, so the Fin behind them can be read and the tenant finished
   without storing what will never be replayed.

   Ingest buffers are recycled.  A Hello takes a recording from the
   daemon's spare pool (or makes one), every Events frame first releases
   what the simulation has consumed and then decodes into it, [reserve]
   compacts the retained tail over the released prefix before it would
   grow, and the session's end (Result sent, or snapshot on detach)
   recycles it back into the pool, which keeps at most [max_tenants]
   spares.  So a buffer holds one session's backlog, not its history:
   reads happen only below [ingest_max] unconsumed events, each read is
   sized to the headroom left below it (at least 4 KiB), and the frame
   a read completes may have started before it, so a buffer never needs
   more than [ingest_max] plus 4 KiB of events plus one Events frame,
   and never grows to twice that.  [status] reports the pool as [ingest
   live <n> pooled <n> slots <total capacity>].

   Reads land straight in the connection's dechunker; there is no shared
   scratch buffer.  Every complete frame is drained after each read, and
   an Events body is decoded where it landed, so a byte is copied once
   between the socket and the ingest buffer (past [Unix.read]'s own
   staging).  The dechunker holds at most one read (64 KiB at most)
   behind the unread tail of one frame, and its buffer never grows to
   twice that.  Its bytes move when the next read needs room, so nothing
   may keep a slice of it past the decode of that frame.

   Sends never block the loop either: outgoing frames are queued per
   connection and flushed through the writability set of the main
   select, so a peer that stops draining its socket — say a control
   client that requested a megabytes-long export and went away — stalls
   only its own replies.  A connection whose unsent queue passes
   [send_max] is dropped.

   Sessions survive both disconnects and daemon restarts: a tenant's
   warm state is snapshotted through [Persist.save_file] (atomic, CRC'd,
   the PR 7 identity machinery) on disconnect and on SIGTERM/SIGINT, and
   restored when the same (tenant, bench, policy, seed) identity says
   Hello again.  The snapshot does not carry the replay cursor; instead
   Welcome tells the client how many events the restored run has already
   consumed and the client resends from there — that re-alignment is
   what makes a resumed run bit-identical to an uninterrupted one. *)

module Simulator = Regionsel_engine.Simulator
module Branch_stream = Regionsel_engine.Branch_stream
module Multi_stream = Regionsel_engine.Multi_stream
module Params = Regionsel_engine.Params
module Context = Regionsel_engine.Context
module Spec = Regionsel_workload.Spec
module Suite = Regionsel_workload.Suite
module Image = Regionsel_workload.Image
module Policies = Regionsel_core.Policies
module Run_metrics = Regionsel_metrics.Run_metrics
module Persist = Regionsel_persist.Persist
module Event_log = Regionsel_persist.Event_log
module Metrics = Regionsel_obs.Metrics
module Check = Regionsel_check.Check

type config = {
  socket_path : string;
  state_dir : string;  (** Session snapshots + flight dumps live here. *)
  budget_bytes : int option;  (** Shared code-cache budget across tenants. *)
  quota_floor : int;  (** Admission floor for per-tenant fair shares. *)
  max_tenants : int;  (** Also the most spare ingest buffers kept. *)
  batch_steps : int;
  ingest_max : int;  (** Per-tenant unconsumed-event bound (backpressure). *)
  n_domains : int option;
  metrics_keep : int;
      (** Windows retained per live tenant recorder, and in total by the
          ring of finished tenants' windows. *)
  verbose : bool;
}

let default_config ~socket_path ~state_dir =
  {
    socket_path;
    state_dir;
    budget_bytes = None;
    quota_floor = 4096;
    max_tenants = 64;
    batch_steps = 4096;
    ingest_max = 1 lsl 16;
    n_domains = None;
    metrics_keep = 256;
    verbose = false;
  }

(* The backpressure hysteresis, pure so it can be unit-tested: pause
   reads at [high], resume only once the backlog has drained to
   [high / 2]. *)
let wants_read ~backlog ~high ~paused =
  if paused then backlog <= high / 2 else backlog < high

type session = {
  s_tenant : string;
  s_bench : string;
  s_policy_name : string;
  s_seed : int64;
  s_program : Regionsel_isa.Program.t;
  s_layout : Branch_stream.layout;  (* [s_program]'s, built once per session *)
  s_sim : Simulator.t;
  s_events : Branch_stream.events;
      (* This attachment's ingest buffer, taken from the spare pool, also
         the sim's replay source: [Branch_stream.of_events] reads the
         live length, so appending here feeds the running simulation.
         Positions are relative to [s_base]. *)
  s_base : int;  (* steps already consumed when this attachment began *)
  s_snap : string;  (* snapshot path (session identity file) *)
  mutable s_fin : bool;
}

let available s = s.s_base + Branch_stream.length s.s_events
let backlog s = available s - Simulator.steps s.s_sim

type conn = {
  c_fd : Unix.file_descr;
  c_dech : Proto.Dechunker.t;
  mutable c_session : session option;
  mutable c_paused : bool;
  mutable c_closed : bool;
      (* No further reads or sends; the fd itself stays open until the
         end-of-loop sweep has flushed any queued output — the sweep is
         the single place a connection fd is ever closed, so a
         descriptor can never be closed twice (and never race a number
         reused in between). *)
  c_out : Bytes.t Queue.t;  (* encoded frames not yet written *)
  mutable c_out_pos : int;  (* offset into the queue's head chunk *)
  mutable c_out_len : int;  (* total unsent bytes, for the [send_max] cap *)
}

(* A recorder serves one run: [h_session] is the run's session file (its
   tenant, bench, policy and seed identity), [h_seq] its first-seen
   sequence number, which orders the exports. *)
type held = { h_seq : int; h_session : string; h_recorder : Metrics.recorder }

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  engine : Multi_stream.Engine.t;
  mutable conns : conn list;
  recorders : (string, held) Hashtbl.t;  (* live and detached tenants' *)
  mutable next_seq : int;
  retired : (int * Metrics.window) Queue.t;
      (* Finished runs' windows tagged with their recorder's [h_seq],
         oldest first, at most [metrics_keep]. *)
  spares : Branch_stream.events Stack.t;
      (* Recycled ingest buffers, at most [max_tenants]. *)
  mutable stopping : bool;
}

let log t fmt =
  Printf.ksprintf
    (fun s -> if t.cfg.verbose then Printf.eprintf "regionsel_daemon: %s\n%!" s)
    fmt

(* End a recorder's lifetime: drop it and move its windows into the
   retired ring, evicting the ring's oldest windows past [metrics_keep].
   The bound is on windows, not tenants, so a daemon's memory stays flat
   however many sessions it serves. *)
let retire_recorder t tenant =
  match Hashtbl.find_opt t.recorders tenant with
  | None -> ()
  | Some h ->
    Hashtbl.remove t.recorders tenant;
    List.iter
      (fun w ->
        Queue.add (h.h_seq, w) t.retired;
        if Queue.length t.retired > t.cfg.metrics_keep then ignore (Queue.take t.retired))
      (Metrics.windows h.h_recorder)

(* The recorder for a Hello's run.  The recorder held under the tenant
   name comes back only to a Hello that restores that recorder's own run
   from its snapshot.  Any other holder belongs to another run (another
   identity, or the run a fresh start replaces): it is retired first, so
   the new run never inherits its labels or baseline. *)
let recorder_for t ~tenant ~policy ~session ~restored =
  match Hashtbl.find_opt t.recorders tenant with
  | Some h when restored && String.equal h.h_session session -> h.h_recorder
  | _ ->
    retire_recorder t tenant;
    let r =
      Metrics.create ~keep:t.cfg.metrics_keep
        ~labels:[ ("tenant", tenant); ("policy", policy); ("dispatch", "threaded") ]
        ()
    in
    Hashtbl.add t.recorders tenant { h_seq = t.next_seq; h_session = session; h_recorder = r };
    t.next_seq <- t.next_seq + 1;
    r

(* The one walk behind the prom/jsonl exports and the flight dump: the
   retired ring, oldest first, then the live recorders in first-seen
   order.  [last] keeps only the newest [last] windows of each run, in
   the ring and live alike. *)
let windows_of ?last t =
  let cut = match last with Some k -> Metrics.newest k | None -> Fun.id in
  let retired_runs =
    Queue.fold
      (fun runs (seq, w) ->
        match runs with
        | (seq', run) :: older when seq' = seq -> (seq, w :: run) :: older
        | _ -> (seq, [ w ]) :: runs)
      [] t.retired
  in
  let live =
    List.sort
      (fun a b -> Int.compare a.h_seq b.h_seq)
      (Hashtbl.fold (fun _ h acc -> h :: acc) t.recorders [])
  in
  List.concat_map (fun (_, run) -> cut (List.rev run)) (List.rev retired_runs)
  @ List.concat_map (fun h -> cut (Metrics.windows h.h_recorder)) live

(* A session's ingest buffer comes from the spare pool and goes back to
   it recycled, so a steady daemon decodes into warm, already-sized
   arrays instead of growing fresh ones every session.  Recycling also
   disarms the finished simulation's replay stream. *)
let take_buffer t =
  match Stack.pop_opt t.spares with Some ev -> ev | None -> Branch_stream.recorder ()

let give_back t ev =
  Branch_stream.recycle ev;
  if Stack.length t.spares < t.cfg.max_tenants then Stack.push ev t.spares

(* Barrier observation: one window per participating tenant per round. *)
let on_barrier recorders ~round:_ participants =
  Array.iter
    (fun (name, sim) ->
      match Hashtbl.find_opt recorders name with
      | Some h -> Simulator.sample sim (Metrics.sample h.h_recorder)
      | None -> ())
    participants

(* --- Sending (non-blocking, EPIPE-safe) ------------------------------- *)

let send_max = 2 * Proto.max_frame
(* A peer may stop draining with up to one maximal reply in flight and
   another queued; past that it is not a slow reader, it is a stalled
   one, and the connection is dropped rather than buffered for. *)

let drop_output conn =
  Queue.clear conn.c_out;
  conn.c_out_pos <- 0;
  conn.c_out_len <- 0

(* Write as much queued output as the socket will take right now.
   Returns [false] when the peer is gone (SIGPIPE is ignored
   process-wide, so a dead peer surfaces as EPIPE/ECONNRESET); the
   queued output is discarded and the connection marked closed — the
   sweep closes the fd. *)
let flush_out t conn =
  let rec go () =
    match Queue.peek_opt conn.c_out with
    | None -> true
    | Some chunk -> (
      let len = Bytes.length chunk - conn.c_out_pos in
      match Unix.write conn.c_fd chunk conn.c_out_pos len with
      | n ->
        conn.c_out_len <- conn.c_out_len - n;
        if n = len then begin
          ignore (Queue.pop conn.c_out);
          conn.c_out_pos <- 0;
          go ()
        end
        else begin
          conn.c_out_pos <- conn.c_out_pos + n;
          true (* kernel buffer full; the select write set resumes us *)
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        log t "peer vanished mid-write";
        drop_output conn;
        conn.c_closed <- true;
        false)
  in
  go ()

(* Queue a frame and opportunistically flush.  Never blocks: what the
   socket refuses stays queued for the event loop's writability set.
   [false] means the peer is gone or hopelessly stalled. *)
let send t conn msg =
  if conn.c_closed then false
  else begin
    let data = Proto.encode msg in
    if conn.c_out_len + Bytes.length data > send_max then begin
      log t "peer stalled with %d bytes queued; dropping connection" conn.c_out_len;
      drop_output conn;
      conn.c_closed <- true;
      false
    end
    else begin
      Queue.add data conn.c_out;
      conn.c_out_len <- conn.c_out_len + Bytes.length data;
      flush_out t conn
    end
  end

(* --- Session lifecycle ------------------------------------------------ *)

let snapshot_session t s =
  Persist.save_file ~path:s.s_snap ~seed:s.s_seed ~policy:s.s_policy_name
    (Simulator.internals s.s_sim);
  log t "tenant %s: snapshot at step %d -> %s" s.s_tenant (Simulator.steps s.s_sim) s.s_snap

(* Detach a connection's session, snapshotting it for a later reconnect.
   Not called for completed sessions (those already left the engine). *)
let detach t conn =
  match conn.c_session with
  | None -> ()
  | Some s ->
    conn.c_session <- None;
    (match Multi_stream.Engine.retire t.engine ~name:s.s_tenant with
    | Some _ -> snapshot_session t s
    | None -> ());
    give_back t s.s_events

(* Finish with a connection: no further reads or sends, snapshot +
   detach its session.  The fd is NOT closed here — any queued output
   (e.g. the Reject that precedes most closes) still flushes through the
   loop's writability set, and the end-of-loop sweep does the single
   [Unix.close] once the queue is empty. *)
let close_conn t conn =
  conn.c_closed <- true;
  detach t conn

let session_of_tenant t name =
  List.find_map
    (fun c ->
      match c.c_session with
      | Some s when (not c.c_closed) && String.equal s.s_tenant name -> Some s
      | _ -> None)
    t.conns

(* Hello: admission control, session identity, snapshot restore. *)
let handle_hello t conn (h : Proto.hello) =
  let reject code detail =
    ignore (send t conn (Proto.Reject { code; detail }));
    log t "tenant %s: rejected (%s: %s)" h.Proto.h_tenant
      (Proto.reject_code_to_string code) detail
  in
  match conn.c_session with
  | Some _ -> reject Proto.Bad_frame "second hello on a streaming connection"
  | None -> (
    let tenant = h.Proto.h_tenant in
    if Option.is_some (session_of_tenant t tenant) then
      reject Proto.Busy_tenant (tenant ^ " is already streaming")
    else
      match (Suite.find h.Proto.h_bench, Policies.find h.Proto.h_policy) with
      | None, _ -> reject Proto.Unknown_bench h.Proto.h_bench
      | _, None -> reject Proto.Unknown_policy h.Proto.h_policy
      | Some spec, Some policy ->
        let image = Spec.image spec in
        let program = image.Image.program in
        let max_steps =
          if h.Proto.h_max_steps = 0 then spec.Spec.default_steps else h.Proto.h_max_steps
        in
        let snap =
          Persist.session_file ~dir:t.cfg.state_dir ~tenant ~bench:h.Proto.h_bench
            ~policy:h.Proto.h_policy ~seed:h.Proto.h_seed
        in
        let events = take_buffer t in
        let create ~restore () =
          Simulator.create ?restore ~seed:h.Proto.h_seed ~replay:events ~policy ~max_steps
            image
        in
        let restore_hook internals =
          let report =
            Persist.restore_file ~path:snap ~seed:h.Proto.h_seed ~policy:h.Proto.h_policy
              internals
          in
          List.iter
            (fun d ->
              log t "tenant %s: degraded section %s (%s)" tenant d.Persist.section
                d.Persist.reason)
            report.Persist.degraded;
          (* The restored cache must satisfy every invariant before the
             tenant takes another step; a violation dumps the flight
             recorder and kills the daemon (exit 3). *)
          Check.audit_cache ~program internals.Simulator.int_ctx.Context.cache
            ~step:internals.Simulator.int_stats.Regionsel_engine.Stats.steps
        in
        let sim, restored =
          if Sys.file_exists snap then (
            try (create ~restore:(Some restore_hook) (), true)
            with Persist.Hard_corruption msg ->
              (* An unusable session file is not the client's fault and
                 not fatal: drop it and start the session fresh. *)
              log t "tenant %s: corrupt session discarded (%s)" tenant msg;
              (try Sys.remove snap with Sys_error _ -> ());
              (create ~restore:None (), false))
          else (create ~restore:None (), false)
        in
        (match Multi_stream.Engine.admit t.engine ~name:tenant sim with
        | Error r ->
          give_back t events;
          let code =
            match r with
            | Multi_stream.Engine.Tenants_saturated _ -> Proto.Tenants_saturated
            | Multi_stream.Engine.Budget_saturated _ -> Proto.Budget_saturated
            | Multi_stream.Engine.Duplicate_tenant _ -> Proto.Busy_tenant
          in
          reject code (Multi_stream.Engine.reject_to_string r)
        | Ok () ->
          let resume_step = Simulator.steps sim in
          Metrics.attach
            (recorder_for t ~tenant ~policy:h.Proto.h_policy ~session:snap ~restored)
            sim;
          conn.c_session <-
            Some
              {
                s_tenant = tenant;
                s_bench = h.Proto.h_bench;
                s_policy_name = h.Proto.h_policy;
                s_seed = h.Proto.h_seed;
                s_program = program;
                s_layout = Branch_stream.layout program;
                s_sim = sim;
                s_events = events;
                s_base = resume_step;
                s_snap = snap;
                s_fin = false;
              };
          log t "tenant %s: attached (bench %s, policy %s, resume %d)" tenant
            h.Proto.h_bench h.Proto.h_policy resume_step;
          ignore
            (send t conn
               (Proto.Welcome { resume_step; session = Filename.basename snap }))))

let handle_events t conn body ~pos ~len =
  match conn.c_session with
  | None ->
    ignore (send t conn (Proto.Reject { code = Proto.Bad_frame; detail = "events before hello" }));
    close_conn t conn
  | Some s when s.s_fin ->
    ignore (send t conn (Proto.Reject { code = Proto.Bad_frame; detail = "events after fin" }));
    close_conn t conn
  | Some s -> (
    (* Consumed events are spent: releasing them first lets the decode
       reuse their slots.  An exhausted simulation consumes nothing more,
       so its batches are validated (a corrupt one is still rejected) and
       then released whole.  [body] is usually the connection's own
       buffer, which the next read may move: the decode copies the events
       out, and nothing keeps the slice. *)
    Branch_stream.release s.s_events (Simulator.steps s.s_sim - s.s_base);
    try
      ignore
        (Event_log.decode_batch ~layout:s.s_layout ~pos ~len body ~program:s.s_program
           ~into:s.s_events);
      if Simulator.exhausted s.s_sim then
        Branch_stream.release s.s_events (Branch_stream.length s.s_events)
    with Persist.Hard_corruption msg ->
      ignore (send t conn (Proto.Reject { code = Proto.Corrupt_events; detail = msg }));
      close_conn t conn)

let status_text t =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "rounds %d\n" (Multi_stream.Engine.rounds t.engine);
  Printf.bprintf buf "recorders %d retired_windows %d\n" (Hashtbl.length t.recorders)
    (Queue.length t.retired);
  let live = List.filter_map (fun c -> Option.map (fun s -> s.s_events) c.c_session) t.conns in
  let slots n ev = n + Branch_stream.capacity ev in
  Printf.bprintf buf "ingest live %d pooled %d slots %d\n" (List.length live)
    (Stack.length t.spares)
    (Stack.fold slots (List.fold_left slots 0 live) t.spares);
  List.iter
    (fun (name, sim) ->
      let line =
        match session_of_tenant t name with
        | Some s ->
          Printf.sprintf "tenant %s steps %d backlog %d fin %b exhausted %b\n" name
            (Simulator.steps sim) (backlog s) s.s_fin (Simulator.exhausted sim)
        | None ->
          Printf.sprintf "tenant %s steps %d detached\n" name (Simulator.steps sim)
      in
      Buffer.add_string buf line)
    (Multi_stream.Engine.tenants t.engine);
  Buffer.contents buf

let handle_ctrl t conn cmd =
  let reply text = ignore (send t conn (Proto.Data text)) in
  match String.split_on_char ' ' (String.trim cmd) with
  | [ "ping" ] -> reply "pong"
  | [ "status" ] -> reply (status_text t)
  | [ "prom" ] -> reply (Metrics.to_prometheus (windows_of t))
  | [ "jsonl" ] -> reply (Metrics.to_jsonl (windows_of t))
  | [ "jsonl"; n ] -> (
    match int_of_string_opt n with
    | Some k when k >= 0 -> reply (Metrics.to_jsonl (windows_of ~last:k t))
    | _ ->
      ignore
        (send t conn (Proto.Reject { code = Proto.Bad_frame; detail = "bad jsonl tail count" })))
  | [ "shutdown" ] ->
    reply "bye";
    t.stopping <- true
  | _ ->
    ignore
      (send t conn (Proto.Reject { code = Proto.Bad_frame; detail = "unknown command " ^ cmd }))

let handle_msg t conn = function
  | Proto.Hello h -> handle_hello t conn h
  | Proto.Events body -> handle_events t conn body ~pos:0 ~len:(Bytes.length body)
  | Proto.Fin -> (
    match conn.c_session with
    | Some s -> s.s_fin <- true
    | None ->
      ignore (send t conn (Proto.Reject { code = Proto.Bad_frame; detail = "fin before hello" }));
      close_conn t conn)
  | Proto.Ctrl cmd -> handle_ctrl t conn cmd
  | Proto.Welcome _ | Proto.Reject _ | Proto.Result _ | Proto.Data _ ->
    ignore
      (send t conn (Proto.Reject { code = Proto.Bad_frame; detail = "server-only frame" }));
    close_conn t conn

(* Drain every complete frame the connection has buffered, an Events
   body decoded where it landed.  Garbage — typed [Protocol_error] —
   answers with a Reject and closes; it never escapes as a crash. *)
let drain_frames t conn =
  let rec go () =
    if not conn.c_closed then
      match Proto.Dechunker.next_frame conn.c_dech with
      | Some (Proto.Dechunker.Events_at { buf; pos; len }) ->
        handle_events t conn buf ~pos ~len;
        go ()
      | Some (Proto.Dechunker.Msg msg) ->
        handle_msg t conn msg;
        go ()
      | None -> ()
  in
  try go ()
  with Proto.Protocol_error msg ->
    ignore (send t conn (Proto.Reject { code = Proto.Bad_frame; detail = msg }));
    close_conn t conn

(* The most one read takes: what [Unix.read] moves in one call. *)
let max_read = 1 lsl 16

(* A streaming tenant's read takes only what its headroom below
   [ingest_max] is worth in encoded events (at least 4 KiB, so a tenant
   near the bound still makes progress); the rest waits in the kernel,
   a couple of bytes an event rather than the eight it takes decoded.
   An exhausted tenant's batches are dropped as they arrive, so it reads
   in full.  A connection without a session reads 4 KiB: its first frame
   is a Hello or a control command, and events pipelined behind a Hello
   stay within the same bound. *)
let read_budget t conn =
  match conn.c_session with
  | Some s when Simulator.exhausted s.s_sim -> max_read
  | Some s ->
    let headroom = t.cfg.ingest_max - backlog s in
    max 4096 (min max_read (headroom * Branch_stream.field_bits s.s_layout / 8))
  | None -> 4096

(* The read lands in the connection's dechunker, where its frames are
   then decoded: the bytes are copied once on their way to the ingest
   buffer. *)
let handle_readable t conn =
  match Proto.Dechunker.fill conn.c_dech ~max:(read_budget t conn) (Unix.read conn.c_fd) with
  | 0 -> close_conn t conn (* EOF: snapshot + detach via close *)
  | _ -> drain_frames t conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> close_conn t conn

(* --- Engine driving --------------------------------------------------- *)

let step_limit t ~name ~sim:_ =
  match session_of_tenant t name with Some s -> available s | None -> 0

(* Finish tenants whose stream is complete: Fin received and every
   ingested event consumed (or the step budget spent first).  The replay
   stream may then run dry inside [finish] — that is exactly what a solo
   replay run does, so the Result is bit-identical to one. *)
let finish_ready t =
  List.iter
    (fun conn ->
      match conn.c_session with
      | Some s
        when s.s_fin && (backlog s <= 0 || Simulator.exhausted s.s_sim)
             && not conn.c_closed ->
        (match Multi_stream.Engine.retire t.engine ~name:s.s_tenant with
        | Some sim ->
          let result = Simulator.finish sim in
          (match Hashtbl.find_opt t.recorders s.s_tenant with
          | Some h -> Metrics.finalize h.h_recorder result
          | None -> ());
          conn.c_session <- None;
          (* The session completed: its snapshot, if any, is spent. *)
          (try Sys.remove s.s_snap with Sys_error _ -> ());
          let json = Run_metrics.to_json (Run_metrics.of_result result) in
          ignore (send t conn (Proto.Result json));
          retire_recorder t s.s_tenant;
          log t "tenant %s: finished at step %d" s.s_tenant result.Simulator.stats.Regionsel_engine.Stats.steps
        | None -> conn.c_session <- None);
        give_back t s.s_events
      | _ -> ())
    t.conns

(* Pending engine work: unconsumed events behind a simulation that can
   still consume them.  An exhausted simulation's backlog never drains,
   so counting it would pin the select timeout at zero and busy-spin the
   loop until its Fin arrives. *)
let any_backlog t =
  List.exists
    (fun c ->
      match c.c_session with
      | Some s -> backlog s > 0 && not (Simulator.exhausted s.s_sim)
      | None -> false)
    t.conns

(* --- The event loop --------------------------------------------------- *)

let accept_ready t =
  match Unix.accept ~cloexec:true t.listen_fd with
  | fd, _ ->
    Unix.set_nonblock fd;
    t.conns <-
      t.conns
      @ [ { c_fd = fd; c_dech = Proto.Dechunker.create (); c_session = None;
            c_paused = false; c_closed = false; c_out = Queue.create ();
            c_out_pos = 0; c_out_len = 0 } ]
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* An exhausted simulation can never drain its backlog, so pausing its
   connection would wedge it permanently: the Fin behind the remaining
   events could never be read, and [finish_ready] would never fire.
   Keep reading — [handle_events] releases the leftover events as they
   arrive, so they cost no storage. *)
let update_pause t conn =
  match conn.c_session with
  | Some s when not (Simulator.exhausted s.s_sim) ->
    conn.c_paused <- not (wants_read ~backlog:(backlog s) ~high:t.cfg.ingest_max ~paused:conn.c_paused)
  | Some _ | None -> conn.c_paused <- false

let snapshot_all t =
  List.iter (fun conn -> detach t conn) t.conns

let cleanup t =
  List.iter (fun c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ()) t.conns;
  t.conns <- [];
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  try Sys.remove t.cfg.socket_path with Sys_error _ -> ()

let loop t stop =
  while not (t.stopping || !stop) do
    List.iter (update_pause t) t.conns;
    let read_fds =
      t.listen_fd
      :: List.filter_map
           (fun c -> if c.c_closed || c.c_paused then None else Some c.c_fd)
           t.conns
    in
    (* A closed connection stays in the write set until its queued
       output (typically a final Reject) has drained. *)
    let write_fds =
      List.filter_map (fun c -> if c.c_out_len > 0 then Some c.c_fd else None) t.conns
    in
    let timeout = if any_backlog t then 0.0 else 0.25 in
    (match Unix.select read_fds write_fds [] timeout with
    | readable, writable, _ ->
      if List.memq t.listen_fd readable then accept_ready t;
      List.iter
        (fun c -> if c.c_out_len > 0 && List.memq c.c_fd writable then ignore (flush_out t c))
        t.conns;
      List.iter
        (fun c -> if (not c.c_closed) && List.memq c.c_fd readable then handle_readable t c)
        t.conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    (* One bounded engine round per loop turn: socket work and simulation
       work interleave, and a slow or stalled client never blocks either
       (its tenant just has nothing to advance). *)
    ignore (Multi_stream.Engine.round t.engine ~limit:(fun ~name ~sim -> step_limit t ~name ~sim));
    finish_ready t;
    (* The single place a connection fd is closed: closed AND drained. *)
    let dead, live =
      List.partition (fun c -> c.c_closed && c.c_out_len = 0) t.conns
    in
    List.iter
      (fun c ->
        detach t c;
        try Unix.close c.c_fd with Unix.Unix_error _ -> ())
      dead;
    t.conns <- live
  done

let serve cfg =
  if cfg.batch_steps <= 0 then invalid_arg "Server.serve: batch_steps must be positive";
  if cfg.ingest_max <= 0 then invalid_arg "Server.serve: ingest_max must be positive";
  if not (Sys.file_exists cfg.state_dir) then Unix.mkdir cfg.state_dir 0o755;
  if Sys.file_exists cfg.socket_path then Sys.remove cfg.socket_path;
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 16;
  Unix.set_nonblock listen_fd;
  let recorders = Hashtbl.create 8 in
  let engine =
    Multi_stream.Engine.create ?n_domains:cfg.n_domains ~batch_steps:cfg.batch_steps
      ?budget_bytes:cfg.budget_bytes ~quota_floor:cfg.quota_floor
      ~max_tenants:cfg.max_tenants ~on_barrier:(on_barrier recorders) ()
  in
  let t =
    {
      cfg;
      listen_fd;
      engine;
      conns = [];
      recorders;
      next_seq = 0;
      retired = Queue.create ();
      spares = Stack.create ();
      stopping = false;
    }
  in
  let stop = ref false in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true)) in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true)) in
  let restore_signals () =
    Sys.set_signal Sys.sigpipe old_pipe;
    Sys.set_signal Sys.sigterm old_term;
    Sys.set_signal Sys.sigint old_int
  in
  (try loop t stop
   with e ->
     (* kill -TERM semantics apply to crashes too: every live tenant is
        snapshotted before the daemon goes down, and a sanitizer
        violation additionally dumps the flight recorder. *)
     (match e with
     | Check.Check_violation v ->
       let path = Filename.concat cfg.state_dir "flight.jsonl" in
       let n =
         Metrics.flight_dump ~path
           ~cli:(String.concat " " (Array.to_list Sys.argv))
           ~detail:(Check.violation_to_string v)
           (windows_of ~last:Metrics.default_flight_keep t)
       in
       Printf.eprintf "regionsel_daemon: flight recorder: %d windows -> %s\n%!" n path
     | _ -> ());
     snapshot_all t;
     cleanup t;
     restore_signals ();
     raise e);
  (* Clean shutdown (signal or ctrl command): snapshot every attached
     tenant so it can resume after restart. *)
  snapshot_all t;
  cleanup t;
  restore_signals ()
