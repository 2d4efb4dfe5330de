(* The pipeline benchmark: four closed-loop workloads that time the region
   selection system end to end, and layer by layer, from outside its
   libraries.

     pipeline.exe [--workload NAME]... [--seed N] [--seconds S]
                  [--trace 0|1|FILE] [--json FILE] [--smoke]

   The seed is the only input: it generates the recordings, the session
   and replay-cell order, the (bench, policy) mix, the truncation points
   and the sample of cells re-checked by the sanitizer.  Each
   workload runs in a fresh child process (this binary re-executed with
   --child), so its peak RSS and GC state are its own; set-up is timed in
   that child and in four more that only set up, and reported as their
   median.  Every output is checked against an independent path.

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics: the end-to-end metrics, or
   with --trace the per-layer ones.  README.md has the tables. *)

module Spec = Regionsel_workload.Spec
module Suite = Regionsel_workload.Suite
module Image = Regionsel_workload.Image
module Simulator = Regionsel_engine.Simulator
module Branch_stream = Regionsel_engine.Branch_stream
module Sim_stats = Regionsel_engine.Stats
module Policies = Regionsel_core.Policies
module Run_metrics = Regionsel_metrics.Run_metrics
module Event_log = Regionsel_persist.Event_log
module Check = Regionsel_check.Check
module Client = Regionsel_serve.Client
module Proto = Regionsel_serve.Proto
module Server = Regionsel_serve.Server
module Daemon = Session.Daemon

let process_start_ns = Trace.now_ns ()
let untraced = Trace.create ~enabled:false
let now = Trace.now_ns
let seconds_since t0 = float_of_int (now () - t0) /. 1e9

(* --- Sizes ------------------------------------------------------------ *)

type sizes = {
  matrix_steps : Spec.t -> int;  (** Budget of one paper-matrix cell. *)
  matrix_cells : int option;  (** Cap on the 84-cell grid ([--smoke]). *)
  oracle_cells : int;  (** Paper-matrix cells re-run under the sanitizer. *)
  codec_events : int;  (** Length of each replay-codec recording. *)
  codec_cells : int option;  (** Cap on the cells of a replay-codec pass ([--smoke]). *)
  session_events : int;  (** Events per daemon session. *)
  lifetime_sessions : int;  (** Sessions one daemon process serves. *)
  scrape_every : int;  (** daemon-mixed: a prom scrape after every Nth session. *)
  min_passes : string -> int;
  stack_benches : int;
  stack_events : int;
  stack_reps : int;
  setup_runs : int;
}

let full =
  {
    matrix_steps = (fun spec -> spec.Spec.default_steps);
    matrix_cells = None;
    oracle_cells = 8;
    codec_events = 50_000;
    codec_cells = None;
    session_events = 50_000;
    lifetime_sessions = 252;
    scrape_every = 10;
    (* Enough operations that every reported tail percentile has ten
       samples beyond it: 168 cells (p90), 144 cells (p90), 1008
       sessions (p99). *)
    min_passes = (function "paper-matrix" -> 2 | "replay-codec" -> 3 | _ -> 4);
    stack_benches = 4;
    stack_events = 100_000;
    stack_reps = 5;
    setup_runs = 5;
  }

let smoke =
  {
    matrix_steps = (fun _ -> 20_000);
    matrix_cells = Some 2;
    oracle_cells = 2;
    codec_events = 20_000;
    codec_cells = Some 2;
    session_events = 20_000;
    lifetime_sessions = 4;
    scrape_every = 2;
    min_passes = (fun _ -> 1);
    stack_benches = 1;
    stack_events = 5_000;
    stack_reps = 1;
    setup_runs = 1;
  }

(* --- Metrics ---------------------------------------------------------- *)

type metric = {
  name : string;
  unit_ : string;
  value : float option;  (** [None]: a tail percentile refused for want of samples. *)
  n : int;  (** Samples behind the value. *)
  quartiles : (float * float) option;
}

let scalar ?(n = 1) name unit_ value = { name; unit_; value = Some value; n; quartiles = None }

let median_of name unit_ samples =
  match Stats.summarize samples with
  | Some s -> { name; unit_; value = Some s.Stats.median; n = s.Stats.n; quartiles = Some (s.Stats.q1, s.Stats.q3) }
  | None -> { name; unit_; value = None; n = 0; quartiles = None }

let tail_of name unit_ ~p samples =
  { name; unit_; value = Stats.tail samples ~p; n = Array.length samples; quartiles = None }

let end_to_end =
  [ ("setup_s", "s"); ("events_per_sec", "events/s"); ("peak_rss_mb", "MiB");
    ("op_ms_p50", "ms"); ("op_ms_p90", "ms") ]

(* --- The record a workload child keeps --------------------------------- *)

(* A raw timing, tagged with its calibration slot: the number of host
   speed samples taken before it.  It is scaled by the samples on either
   side (see [Calibrate]). *)
type timed = { slot : int; ns : int }

type op = { bench : string; policy : string; t : timed; events : int }

type pass = {
  slots : int * int;  (** The samples taken during the pass, [first, last). *)
  pass_ns : int;  (** Wall time less the time spent sampling. *)
  pass_events : int;
  traced : bool;
}

type book = {
  lock : Mutex.t;
  mutable ops : op list;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable passes : pass list;
  mutable calibration : int list;  (** Kernel times, newest first. *)
  mutable slot : int;  (** Samples taken so far. *)
  mutable calibration_wall_ns : int;  (** Time spent taking them. *)
  mutable welcome_ns : timed list;
  mutable result_ns : timed list;
  mutable scrape_ns : timed list;
  mutable session_ns : int;
  mutable encode_ns : int;
  mutable write_ns : int;
  mutable resumes : int;
  mutable rejects : int;
  mutable prom_bytes : int;
  mutable rss_mb : float list;
}

let book () =
  { lock = Mutex.create (); ops = []; attempted = 0; failed = 0; failures = [];
    passes = []; calibration = []; slot = 0; calibration_wall_ns = 0; welcome_ns = []; result_ns = [];
    scrape_ns = []; session_ns = 0; encode_ns = 0; write_ns = 0; resumes = 0; rejects = 0;
    prom_bytes = 0; rss_mb = [] }

let locked b f = Mutex.protect b.lock (fun () -> f b)

let fail b msg =
  locked b (fun b ->
      b.failed <- b.failed + 1;
      if List.length b.failures < 20 then b.failures <- b.failures @ [ msg ])

let add_op b ~bench ~policy ~ns ~events =
  locked b (fun b ->
      b.attempted <- b.attempted + 1;
      b.ops <- { bench; policy; t = { slot = b.slot; ns }; events } :: b.ops)

let stamp b ns = { slot = b.slot; ns }

(* A calibration sample, taken where nothing else of the benchmark runs;
   its time is left out of the pass's wall time. *)
let quiet ?(tr = untraced) ?parent b ~wide =
  let t0 = now () in
  let k = Trace.span tr ?parent "bench.calibrate" (fun _ -> Calibrate.sample ~wide) in
  locked b (fun b ->
      b.calibration <- k :: b.calibration;
      b.slot <- b.slot + 1;
      b.calibration_wall_ns <- b.calibration_wall_ns + (now () - t0))

(* The host speed around each slot: the median of the samples just before
   and just after it, and the one after that. *)
let speeds b =
  let k = Array.of_list (List.rev b.calibration) in
  let n = Array.length k in
  Array.init (n + 1) (fun s ->
      Calibrate.speed (List.filter_map (fun i -> if i >= 0 && i < n then Some k.(i) else None) [ s - 1; s; s + 1 ]))

(* The median speed over a range of samples. *)
let speed_over b (first, last) =
  let k = Array.of_list (List.rev b.calibration) in
  Calibrate.speed (List.init (max 0 (last - first)) (fun i -> k.(first + i)))

let scaled_ms speeds t = float_of_int t.ns /. 1e6 /. speeds.(min t.slot (Array.length speeds - 1))

(* Per-bench totals, in reference-machine time. *)
type row = { r_bench : string; r_ops : int; r_events : int; r_ms : float; r_op_ms_p50 : float }

type child_result = {
  setup_s : float;  (** Scaled to the reference machine. *)
  raw_setup_s : float;
  attempted : int;
  failed : int;
  failures : string list;
  metrics : metric list;  (** End to end, less [setup_s] (the parent's median). *)
  raw : metric list;  (** The end-to-end timings before scaling. *)
  layers : metric list;  (** Per layer; traced runs only. *)
  rows : row list;
  breakdown : Trace.total list;
}

(* --- Helpers ----------------------------------------------------------- *)

(* Scratch space for children, daemon sockets and session state, under
   the working directory: the socket path must stay short. *)
let state_root = ".bench_state"
let op_counter = Atomic.make 0
let next_op () = Atomic.fetch_and_add op_counter 1

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let rec take k = function x :: rest when k > 0 -> x :: take (k - 1) rest | _ -> []

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let force_images () =
  let t0 = now () in
  List.iter (fun spec -> ignore (Spec.image spec)) Suite.all;
  float_of_int (now () - t0) /. 1e6

let to_json r = Run_metrics.to_json (Run_metrics.of_result r)

let grid = List.concat_map (fun spec -> List.map (fun (p, m) -> (spec, p, m)) Policies.all) Suite.all

let record ~seed ~n spec =
  let events = Branch_stream.recorder () in
  let r = Simulator.run ~seed ~record:events ~policy:Policies.net ~max_steps:n (Spec.image spec) in
  (events, r)

(* --- The child: one workload ------------------------------------------ *)

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  sz : sizes;
  is_smoke : bool;
  tracer : Trace.t;
  b : book;
  run_dir : string;
  exe : string;
}

(* What a workload hands the common pass loop: the untimed hooks around each
   pass and the timed pass body, which returns the events it consumed. *)
type workload = {
  image_ms : float;
  prepare : int -> unit;
  body : tr:Trace.t -> parent:int -> int -> int;
  finish : int -> unit;
  check : unit -> unit;  (** Untimed output checks after the last pass. *)
  teardown : unit -> unit;
  serving : bool;  (** Sessions through the daemon. *)
}

let no_hook (_ : int) = ()
let min_passes ctx = ctx.sz.min_passes ctx.workload
let add_rss b mb = locked b (fun b -> b.rss_mb <- mb :: b.rss_mb)

(* The in-process workloads' high-water mark, read once after a fixed
   number of passes so that it does not grow with how many passes the
   time allowed. *)
let self_rss_after ctx pass =
  if pass = min_passes ctx - 1 then add_rss ctx.b (Session.vm_hwm_mb "/proc/self/status")

let run_passes ctx w =
  let deadline = Unix.gettimeofday () +. ctx.seconds in
  let i = ref 0 in
  while !i < min_passes ctx || Unix.gettimeofday () < deadline do
    w.prepare !i;
    let traced = Trace.enabled ctx.tracer && !i mod 2 = 0 in
    let tr = if traced then ctx.tracer else untraced in
    let calibrating = ctx.b.calibration_wall_ns and first = ctx.b.slot in
    let t0 = now () in
    let events = Trace.span tr "bench.pass" (fun parent -> w.body ~tr ~parent !i) in
    let pass_ns = now () - t0 - (ctx.b.calibration_wall_ns - calibrating) in
    let pass = { slots = (first, ctx.b.slot); pass_ns; pass_events = events; traced } in
    locked ctx.b (fun b -> b.passes <- pass :: b.passes);
    w.finish !i;
    incr i
  done

(* One timed in-process operation (a cell): [f] runs inside the
   operation's root span and returns the events it consumed and its
   output; [check] names what is wrong with the output, if anything. *)
let operation ctx ~tr ~parent ~bench ~policy ~check f =
  let where = bench ^ "/" ^ policy in
  let t0 = now () in
  match Trace.span tr ~parent ~op:(next_op ()) "bench.cell" f with
  | events, out ->
    add_op ctx.b ~bench ~policy ~ns:(now () - t0) ~events;
    Option.iter (fun msg -> fail ctx.b (where ^ ": " ^ msg)) (check out);
    quiet ~tr ~parent ctx.b ~wide:false;
    events
  | exception e ->
    add_op ctx.b ~bench ~policy ~ns:(now () - t0) ~events:0;
    fail ctx.b (where ^ ": " ^ Printexc.to_string e);
    quiet ~tr ~parent ctx.b ~wide:false;
    0

(* paper-matrix: the paper's evaluation, 12 benches x 7 policies, live,
   in figure order at the interpreter seed of the paper's figures (1, as
   in bench/main.ml).  [--seed] only picks the checked sample: the
   interpreter seed changes which regions form, and the cell order when
   the collector runs, and either moves the peak heap by up to 10%. *)
let paper_matrix ctx =
  let image_ms = force_images () in
  let seed = 1L in
  let cells =
    match ctx.sz.matrix_cells with
    | Some k -> take k (shuffle (Random.State.make [| ctx.seed; 1 |]) grid)
    | None -> grid
  in
  let run_cell ~tr ~parent (spec, _, policy) =
    let r =
      Trace.span tr ~parent "simulator.run" (fun _ ->
          Simulator.run ~seed ~policy ~max_steps:(ctx.sz.matrix_steps spec) (Spec.image spec))
    in
    (r.Simulator.stats.Sim_stats.steps, Trace.span tr ~parent "run_metrics.to_json" (fun _ -> to_json r))
  in
  ignore (run_cell ~tr:untraced ~parent:Trace.no_span (List.hd cells));
  let outputs = Hashtbl.create 128 in
  let body ~tr ~parent _ =
    List.fold_left
      (fun acc ((spec, pname, _) as cell) ->
        let key = (spec.Spec.name, pname) in
        let check json =
          match Hashtbl.find_opt outputs key with
          | None ->
            Hashtbl.add outputs key json;
            None
          | Some first when String.equal first json -> None
          | Some _ -> Some "output changed between passes"
        in
        acc
        + operation ctx ~tr ~parent ~bench:spec.Spec.name ~policy:pname ~check (fun sid ->
              let steps, json = run_cell ~tr ~parent:sid cell in
              Trace.count tr sid ~events:steps ~frames:0 ~bytes:(String.length json);
              (steps, json)))
      0 cells
  in
  (* The shadow-interpreter oracle on a seeded sample: the checked run must
     reproduce the timed run's metrics byte for byte, with no violation.
     The cache is audited after every mutation and at the end, but not
     every 64 steps as well: that sweep makes a gcc cell 20x slower. *)
  let check () =
    List.iter
      (fun (spec, pname, policy) ->
        let where = Printf.sprintf "%s/%s" spec.Spec.name pname in
        match
          Check.checked_run ~audit_every:0 ~seed ~policy ~max_steps:(ctx.sz.matrix_steps spec)
            (Spec.image spec)
        with
        | r -> (
          (* The sanitizer runs with a telemetry sink, which adds its
             event ledger to the metrics; every other field must match. *)
          let checked =
            Run_metrics.to_json { (Run_metrics.of_result r) with Run_metrics.telemetry = None }
          in
          match Hashtbl.find_opt outputs (spec.Spec.name, pname) with
          | Some timed when String.equal timed checked -> ()
          | Some _ -> fail ctx.b (where ^ ": differs from its checked run")
          | None -> fail ctx.b (where ^ ": sampled for checking but never timed"))
        | exception Check.Check_violation v ->
          fail ctx.b (where ^ ": " ^ Check.violation_to_string v))
      (take ctx.sz.oracle_cells (shuffle (Random.State.make [| ctx.seed; 3 |]) cells))
  in
  { image_ms; prepare = no_hook; body; finish = self_rss_after ctx; check; teardown = ignore; serving = false }

(* replay-codec: record once, then per bench encode, and per cell decode
   and replay under the four paper policies. *)
let replay_codec ctx =
  let image_ms = force_images () in
  let seed = Int64.of_int ctx.seed in
  let n = ctx.sz.codec_events in
  let recordings = List.map (fun spec -> (spec, record ~seed ~n spec)) Suite.all in
  (* References: the live run of every cell.  NET's is the recording run. *)
  let refs = Hashtbl.create 64 in
  List.iter
    (fun (spec, (_, live_net)) ->
      List.iter
        (fun (pname, policy) ->
          let r =
            if pname = "net" then live_net
            else Simulator.run ~seed ~policy ~max_steps:n (Spec.image spec)
          in
          Hashtbl.replace refs (spec.Spec.name, pname) (to_json r))
        Policies.paper)
    recordings;
  let schedule pass =
    let rng = Random.State.make [| ctx.seed; 2; pass |] in
    let groups =
      List.map (fun (spec, (events, _)) -> (spec, events, shuffle rng Policies.paper))
        (shuffle rng recordings)
    in
    match ctx.sz.codec_cells with
    | Some k -> (
      match groups with (spec, events, policies) :: _ -> [ (spec, events, take k policies) ] | [] -> [])
    | None -> groups
  in
  let run_group ~tr ~parent (spec, events, policies) =
    let image = Spec.image spec in
    let program = image.Image.program in
    let file =
      Trace.span tr ~parent "event_log.encode" (fun _ -> Event_log.encode ~program ~seed events)
    in
    List.fold_left
      (fun acc (pname, policy) ->
        let check json =
          if String.equal json (Hashtbl.find refs (spec.Spec.name, pname)) then None
          else Some "replay differs from the live run"
        in
        acc
        + operation ctx ~tr ~parent ~bench:spec.Spec.name ~policy:pname ~check (fun sid ->
              let replay =
                Trace.span tr ~parent:sid "event_log.decode" (fun _ ->
                    Event_log.decode file ~program ~seed)
              in
              let r =
                Trace.span tr ~parent:sid "simulator.run" (fun _ ->
                    Simulator.run ~seed ~replay ~policy ~max_steps:n image)
              in
              let json = Trace.span tr ~parent:sid "run_metrics.to_json" (fun _ -> to_json r) in
              let steps = r.Simulator.stats.Sim_stats.steps in
              Trace.count tr sid ~events:steps ~frames:0 ~bytes:(Bytes.length file);
              (steps, json)))
      0 policies
  in
  (match schedule (-1) with
  | (spec, events, p :: _) :: _ ->
    let program = (Spec.image spec).Image.program in
    let file = Event_log.encode ~program ~seed events in
    ignore
      (Simulator.run ~seed ~replay:(Event_log.decode file ~program ~seed) ~policy:(snd p)
         ~max_steps:n (Spec.image spec))
  | _ -> ());
  let body ~tr ~parent pass =
    List.fold_left (fun acc g -> acc + run_group ~tr ~parent g) 0 (schedule pass)
  in
  { image_ms; prepare = no_hook; body; finish = self_rss_after ctx; check = ignore;
    teardown = ignore; serving = false }

(* daemon-serial and daemon-mixed: sessions through a daemon child. *)
type plan = { index : int; spec : Spec.t; pname : string; truncate : int option }

let daemon_workload ctx ~mixed =
  let image_ms = force_images () in
  let seed = Int64.of_int ctx.seed in
  let n = ctx.sz.session_events in
  let recordings = Hashtbl.create 16 in
  List.iter (fun spec -> Hashtbl.replace recordings spec.Spec.name (fst (record ~seed ~n spec))) Suite.all;
  (* References: an in-process replay of the same events, policy and
     budget, for all 84 (bench, policy) pairs. *)
  let refs = Hashtbl.create 128 in
  List.iter
    (fun (spec, pname, policy) ->
      let replay = Hashtbl.find recordings spec.Spec.name in
      Hashtbl.replace refs (spec.Spec.name, pname)
        (to_json (Simulator.run ~seed ~replay ~policy ~max_steps:n (Spec.image spec))))
    grid;
  let ingest_max =
    if mixed then 8192 else (Server.default_config ~socket_path:"" ~state_dir:"").Server.ingest_max
  in
  (* Session [j] of daemon lifetime [life].  Every 84 sessions are a
     seeded permutation of the whole grid, and every 4 sessions of
     daemon-mixed hold exactly one dropped one, so the work in a lifetime
     is the same at every seed; only its order and the prefixes differ. *)
  let plan ~life j =
    let per = List.length grid in
    let block = shuffle (Random.State.make [| ctx.seed; 4; life; j / per |]) grid in
    let spec, pname, _ = List.nth block (j mod per) in
    let dropped = Random.State.int (Random.State.make [| ctx.seed; 6; life; j / 4 |]) 4 in
    let prefix =
      (n / 5) + Random.State.int (Random.State.make [| ctx.seed; 7; life; j |]) ((3 * n / 5) + 1)
    in
    let drop = if ctx.is_smoke then j < 2 else j mod 4 = dropped in
    { index = (life * ctx.sz.lifetime_sessions) + j; spec; pname;
      truncate = (if mixed && drop then Some prefix else None) }
  in
  let daemon = ref None in
  let current () = Option.get !daemon in
  let stop () =
    Option.iter Daemon.stop !daemon;
    daemon := None
  in
  let outputs = Hashtbl.create 128 in
  (* One session, Hello to Result, including the reconnect of a dropped
     one.  Returns the elapsed time, the phase timings and the outcome. *)
  let session ~tr ~parent ~tenant plan =
    let d = current () in
    let bench = plan.spec.Spec.name in
    let events = Hashtbl.find recordings bench in
    let program = (Spec.image plan.spec).Image.program in
    let timing = Session.timing () in
    let stream ?truncate_at sid =
      Session.stream ?truncate_at ~tracer:tr ~parent:sid ~timing
        ~socket_path:(Daemon.socket_path d) ~tenant ~bench ~policy:plan.pname ~seed ~max_steps:n
        ~program events
    in
    let t0 = now () in
    let outcome =
      Trace.span tr ~parent ~op:plan.index "client.session" (fun sid ->
          let outcome =
            try
              (match plan.truncate with
              | Some k ->
                (match stream ~truncate_at:k sid with
                | Session.Truncated _ -> ()
                | Session.Finished _ -> failwith "a dropped session finished");
                Session.wait_detached ~tracer:tr ~parent:sid ~state_dir:(Daemon.state_dir d) ~tenant
                  ~bench ~policy:plan.pname ~seed
              | None -> ());
              match stream sid with
              | Session.Finished json -> Ok json
              | Session.Truncated _ -> Error "session ended without a Result"
            with
            | Client.Rejected { code; detail } ->
              locked ctx.b (fun b -> b.rejects <- b.rejects + 1);
              Error ("reject " ^ Proto.reject_code_to_string code ^ ": " ^ detail)
            | e -> Error (Printexc.to_string e)
          in
          Trace.count tr sid ~events:n ~frames:timing.frames ~bytes:timing.bytes;
          outcome)
    in
    (now () - t0, timing, outcome)
  in
  let timed_session ~tr ~parent plan =
    let tenant = Printf.sprintf "s%d-%d" ctx.seed plan.index in
    let ns, timing, outcome = session ~tr ~parent ~tenant plan in
    let key = (plan.spec.Spec.name, plan.pname) in
    let where = Printf.sprintf "session %d (%s/%s)" plan.index (fst key) plan.pname in
    add_op ctx.b ~bench:(fst key) ~policy:plan.pname ~ns ~events:n;
    locked ctx.b (fun b ->
        b.welcome_ns <- List.map (stamp b) timing.Session.welcome_ns @ b.welcome_ns;
        if timing.Session.result_ns > 0 then
          b.result_ns <- stamp b timing.Session.result_ns :: b.result_ns;
        b.session_ns <- b.session_ns + ns;
        b.encode_ns <- b.encode_ns + timing.Session.encode_ns;
        b.write_ns <- b.write_ns + timing.Session.write_ns;
        b.resumes <- b.resumes + timing.Session.resumes);
    match outcome with
    | Ok json when String.equal json (Hashtbl.find refs key) ->
      locked ctx.b (fun _ -> Hashtbl.replace outputs key json);
      n
    | Ok _ ->
      fail ctx.b (where ^ ": Result differs from the in-process replay");
      0
    | Error msg ->
      fail ctx.b (where ^ ": " ^ msg);
      0
  in
  let scrape ~tr ~parent =
    let t0 = now () in
    let socket_path = Daemon.socket_path (current ()) in
    match Trace.span tr ~parent "client.ctrl" (fun _ -> Client.ctrl ~socket_path "prom") with
    | Ok text ->
      locked ctx.b (fun b ->
          b.attempted <- b.attempted + 1;
          b.scrape_ns <- stamp b (now () - t0) :: b.scrape_ns;
          b.prom_bytes <- String.length text)
    | Error (code, detail) ->
      locked ctx.b (fun b ->
          b.attempted <- b.attempted + 1;
          b.rejects <- b.rejects + 1);
      fail ctx.b ("prom scrape rejected: " ^ Proto.reject_code_to_string code ^ " " ^ detail)
    | exception e ->
      locked ctx.b (fun b -> b.attempted <- b.attempted + 1);
      fail ctx.b ("prom scrape: " ^ Printexc.to_string e)
  in
  (* Each daemon process serves a fixed number of sessions, so what it
     accumulates (recorders, RSS, scrape size) does not depend on how
     fast the sessions went. *)
  let prepare life =
    let dir = Filename.concat ctx.run_dir (Printf.sprintf "life%d" life) in
    mkdir_p dir;
    daemon :=
      Some
        (Daemon.start ~exe:ctx.exe ~socket_path:(Filename.concat dir "d.sock")
           ~state_dir:(Filename.concat dir "state") ~ingest_max);
    let _, _, outcome =
      session ~tr:untraced ~parent:Trace.no_span ~tenant:(Printf.sprintf "warmup-%d" life)
        { (plan ~life 0) with truncate = None }
    in
    match outcome with Ok _ -> () | Error msg -> fail ctx.b ("warm-up session: " ^ msg)
  in
  let body ~tr ~parent life =
    let total = ctx.sz.lifetime_sessions in
    if not mixed then
      List.fold_left
        (fun acc j ->
          let consumed = timed_session ~tr ~parent (plan ~life j) in
          quiet ~tr ~parent ctx.b ~wide:true;
          acc + consumed)
        0 (List.init total Fun.id)
    else begin
      (* Two client threads over each block of [scrape_every] sessions,
         even and odd; the odd one scrapes after its last session.  At
         most two connections are open at once.  Both threads end with
         the block, which gives the calibration sample a quiet point. *)
      let consumed = Atomic.make 0 in
      let every = ctx.sz.scrape_every in
      let block first =
        let last = min (first + every) total - 1 in
        let worker parity () =
          for j = first to last do
            if j mod 2 = parity then
              ignore (Atomic.fetch_and_add consumed (timed_session ~tr ~parent (plan ~life j)))
          done;
          if parity = 1 && last - first + 1 = every then scrape ~tr ~parent
        in
        List.iter Thread.join (List.map (fun parity -> Thread.create (worker parity) ()) [ 0; 1 ]);
        quiet ~tr ~parent ctx.b ~wide:true
      in
      for k = 0 to (total - 1) / every do
        block (k * every)
      done;
      Atomic.get consumed
    end
  in
  let finish life =
    add_rss ctx.b (Daemon.peak_rss_mb (current ()));
    (* The smoke run also pins these sessions to the client library:
       the same session through [Client.stream_events] must return the
       same Result. *)
    if ctx.is_smoke && life = 0 then begin
      let p = plan ~life 0 in
      let key = (p.spec.Spec.name, p.pname) in
      match
        Client.stream_events ~socket_path:(Daemon.socket_path (current ())) ~tenant:"smoke-client"
          ~bench:(fst key) ~policy:p.pname ~seed ~max_steps:n
          ~program:(Spec.image p.spec).Image.program (Hashtbl.find recordings (fst key))
      with
      | Client.Finished json when Hashtbl.find_opt outputs key = Some json -> ()
      | _ -> fail ctx.b "Session.stream and Client.stream_events disagree"
      | exception e -> fail ctx.b ("Client.stream_events: " ^ Printexc.to_string e)
    end;
    stop ()
  in
  let check () =
    if ctx.is_smoke && mixed then begin
      if ctx.b.resumes = 0 then fail ctx.b "smoke: no session was resumed";
      if ctx.b.scrape_ns = [] then fail ctx.b "smoke: no scrape was made"
    end
  in
  prepare 0;
  { image_ms; prepare = (fun life -> if life > 0 then prepare life); body; finish; check;
    teardown = stop; serving = true }

let workloads =
  [ ("paper-matrix", paper_matrix); ("replay-codec", replay_codec);
    ("daemon-serial", daemon_workload ~mixed:false); ("daemon-mixed", daemon_workload ~mixed:true) ]

(* The stacks' inputs, the same for every workload at one seed: a seeded
   sample of benches, each recorded live. *)
let stack_inputs ctx =
  let seed = Int64.of_int ctx.seed in
  let rng = Random.State.make [| ctx.seed; 5 |] in
  let n = ctx.sz.stack_events in
  List.map
    (fun spec ->
      { Stacks.spec; seed; events = fst (record ~seed ~n spec);
        trunc = (n / 5) + Random.State.int rng ((3 * n / 5) + 1) })
    (take ctx.sz.stack_benches (shuffle rng Suite.all))

let ns_ms ns = float_of_int ns /. 1e6

let rows_of speeds ops =
  let by_bench = Hashtbl.create 16 in
  List.iter
    (fun op ->
      Hashtbl.replace by_bench op.bench
        (op :: Option.value ~default:[] (Hashtbl.find_opt by_bench op.bench)))
    ops;
  List.filter_map
    (fun name ->
      match Hashtbl.find_opt by_bench name with
      | None -> None
      | Some ops ->
        let ms = Array.of_list (List.map (fun o -> scaled_ms speeds o.t) ops) in
        Some
          {
            r_bench = name;
            r_ops = List.length ops;
            r_events = List.fold_left (fun a o -> a + o.events) 0 ops;
            r_ms = Array.fold_left ( +. ) 0.0 ms;
            r_op_ms_p50 = (match Stats.summarize ms with Some s -> s.Stats.median | None -> 0.0);
          })
    Suite.names

(* Events per second of pass time; with [b], each pass's time is first
   scaled to the reference machine by the samples taken during it. *)
let rate ?b passes =
  let secs p =
    float_of_int p.pass_ns /. 1e9 /. match b with Some b -> speed_over b p.slots | None -> 1.0
  in
  Stats.ratio
    ~num:(float_of_int (List.fold_left (fun a p -> a + p.pass_events) 0 passes))
    ~base:(List.fold_left (fun a p -> a +. secs p) 0.0 passes)

let throughput ~scaled name b =
  let b' = if scaled then Some b else None in
  let per_pass = Array.of_list (List.map (fun p -> (rate ?b:b' [ p ]).Stats.value) b.passes) in
  { name; unit_ = "events/s"; value = Some (rate ?b:b' b.passes).Stats.value;
    n = List.length b.passes;
    quartiles = Option.map (fun s -> (s.Stats.q1, s.Stats.q3)) (Stats.summarize per_pass) }

let end_to_end_metrics b speeds =
  let ops_ms = Array.of_list (List.map (fun o -> scaled_ms speeds o.t) b.ops) in
  [
    throughput ~scaled:true "events_per_sec" b;
    median_of "peak_rss_mb" "MiB" (Array.of_list b.rss_mb);
    median_of "op_ms_p50" "ms" ops_ms;
    tail_of "op_ms_p90" "ms" ~p:90.0 ops_ms;
  ]

(* The same timings unscaled, as the host delivered them. *)
let raw_metrics b =
  let ops_ms = Array.of_list (List.map (fun o -> ns_ms o.t.ns) b.ops) in
  [
    throughput ~scaled:false "raw.events_per_sec" b;
    median_of "raw.op_ms_p50" "ms" ops_ms;
    tail_of "raw.op_ms_p90" "ms" ~p:90.0 ops_ms;
  ]

let setup_samples = 10

let layer_metrics w b speeds ~reps (stacks : Stacks.result) totals =
  let events = List.fold_left (fun a o -> a + o.events) 0 b.ops in
  let run_speed = speed_over b (setup_samples, b.slot) in
  let ms l = Array.of_list (List.map (scaled_ms speeds) l) in
  let traced, plain = List.partition (fun p -> p.traced) b.passes in
  let overhead =
    let t = rate ~b traced and u = rate ~b plain in
    if t.Stats.value = 0.0 || u.Stats.value = 0.0 then 0.0 else 1.0 -. (t.Stats.value /. u.Stats.value)
  in
  (* The share of traced time that layer spans account for: their self
     time over all spans' self time, which sums to the traced passes'
     wall time on one thread (and to thread time on two), less the
     calibration samples. *)
  let coverage =
    let sum keep =
      List.fold_left (fun a (t : Trace.total) -> if keep t.Trace.name then a + t.Trace.self_ns else a) 0 totals
    in
    let layer_ns = sum (fun name -> not (String.starts_with ~prefix:"bench." name)) in
    let traced_ns = sum (fun name -> name <> "bench.calibrate") in
    (Stats.ratio ~num:(float_of_int layer_ns) ~base:(float_of_int traced_ns)).Stats.value
  in
  let residual =
    if not w.serving || events = 0 then 0.0
    else
      (float_of_int (b.session_ns - b.encode_ns) /. float_of_int events /. run_speed)
      -. stacks.Stacks.serving_ns_per_event
  in
  let stack_units name =
    if String.ends_with ~suffix:"ns_per_event" name then "ns/event"
    else if String.ends_with ~suffix:"_ms" name || name = "run_metrics.ms_per_result" then "ms"
    else if String.ends_with ~suffix:"_kb" name then "KiB"
    else if name = "event_log.bits_per_event" then "bits/event"
    else "ratio"
  in
  [ scalar "workload.image_ms" "ms" w.image_ms ]
  @ List.map (fun (name, v) -> scalar ~n:reps name (stack_units name) v) stacks.Stacks.metrics
  @ [
      scalar "server.residual_ns_per_event" "ns/event" residual;
      median_of "server.welcome_ms_p50" "ms" (ms b.welcome_ns);
      tail_of "server.welcome_ms_p99" "ms" ~p:99.0 (ms b.welcome_ns);
      median_of "server.result_ms_p50" "ms" (ms b.result_ns);
      tail_of "server.result_ms_p99" "ms" ~p:99.0 (ms b.result_ns);
      tail_of "server.session_ms_p99" "ms" ~p:99.0
        (if w.serving then ms (List.map (fun o -> o.t) b.ops) else [||]);
      median_of "server.scrape_ms_p50" "ms" (ms b.scrape_ns);
      tail_of "server.scrape_ms_p90" "ms" ~p:90.0 (ms b.scrape_ns);
      scalar "server.resumes" "count" (float_of_int b.resumes);
      scalar "server.rejects" "count" (float_of_int b.rejects);
      scalar "server.prom_kb" "KiB" (float_of_int b.prom_bytes /. 1024.0);
      scalar "client.send_blocked_frac" "ratio"
        (Stats.ratio ~num:(float_of_int b.write_ns) ~base:(float_of_int b.session_ns)).Stats.value;
      scalar "bench.kernel_ms" "ms" (run_speed *. float_of_int Calibrate.reference_ns /. 1e6);
      scalar "bench.trace_overhead_frac" "ratio" overhead;
      scalar "bench.trace_coverage_frac" "ratio" coverage;
    ]

let run_child ~workload ~seed ~seconds ~sz ~is_smoke ~setup_only ~trace =
  let make = List.assoc workload workloads in
  let run_dir = Filename.concat state_root (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
  mkdir_p run_dir;
  let ctx =
    { workload; seed; seconds; sz; is_smoke; tracer = Trace.create ~enabled:(trace <> None);
      b = book (); run_dir; exe = Sys.executable_name }
  in
  Fun.protect ~finally:(fun () -> rm_rf run_dir) @@ fun () ->
  let w = make ctx in
  Fun.protect ~finally:w.teardown @@ fun () ->
  let raw_setup_s = seconds_since process_start_ns in
  (* Set-up is scaled by the host speed measured right after it. *)
  for _ = 1 to setup_samples do
    quiet ctx.b ~wide:false
  done;
  let setup_s = raw_setup_s /. speed_over ctx.b (0, setup_samples) in
  if setup_only then
    { setup_s; raw_setup_s; attempted = 0; failed = 0; failures = []; metrics = []; raw = [];
      layers = []; rows = []; breakdown = [] }
  else begin
    run_passes ctx w;
    w.check ();
    let b = ctx.b in
    let speeds = speeds b in
    let totals = Trace.totals ctx.tracer in
    let layers =
      if trace = None then []
      else
        let inputs = stack_inputs ctx in
        layer_metrics w b speeds ~reps:sz.stack_reps (Stacks.run ~reps:sz.stack_reps inputs) totals
    in
    (match trace with
    | Some (Some path) -> Trace.write_chrome ctx.tracer ~path
    | Some None | None -> ());
    { setup_s; raw_setup_s; attempted = b.attempted; failed = min b.failed (max 1 b.attempted);
      failures = b.failures; metrics = end_to_end_metrics b speeds; raw = raw_metrics b; layers;
      rows = rows_of speeds b.ops; breakdown = totals }
  end

(* --- JSON -------------------------------------------------------------- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let rec write b = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f ->
      if Float.is_finite f then Printf.bprintf b "%.17g" f else Buffer.add_string b "null"
    | String s ->
      Buffer.add_char b '"';
      String.iter
        (function
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"'
    | List l ->
      Buffer.add_char b '[';
      List.iteri (fun i x -> if i > 0 then Buffer.add_string b ", "; write b x) l;
      Buffer.add_char b ']'
    | Obj kv ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          write b (String k);
          Buffer.add_string b ": ";
          write b v)
        kv;
      Buffer.add_char b '}'

  let to_string t =
    let b = Buffer.create 1024 in
    write b t;
    Buffer.contents b
end

let opt_float = function Some v -> Json.Float v | None -> Json.Null

let metric_json m =
  Json.Obj
    ([ ("value", opt_float m.value); ("unit", Json.String m.unit_); ("n", Json.Int m.n) ]
    @
    match m.quartiles with
    | Some (q1, q3) -> [ ("q1", Json.Float q1); ("q3", Json.Float q3) ]
    | None -> [])

(* --- The parent: one child per workload ------------------------------- *)

let rec waitpid pid =
  try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let spawn_child ~args =
  let result = Filename.concat state_root (Printf.sprintf "result-%d" (Unix.getpid ())) in
  let exe = Sys.executable_name in
  let argv = Array.of_list ((exe :: args) @ [ "--result"; result ]) in
  let pid = Unix.create_process exe argv Unix.stdin Unix.stderr Unix.stderr in
  match waitpid pid with
  | Unix.WEXITED 0 ->
    let r : child_result = In_channel.with_open_bin result input_value in
    Sys.remove result;
    r
  | Unix.WEXITED c -> failwith (Printf.sprintf "%s child exited with code %d" (List.nth args 1) c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
    failwith (Printf.sprintf "%s child killed by signal %d" (List.nth args 1) s)

type measured = { w_name : string; setup : metric; raw_setup : metric; child : child_result }

let measure ~seed ~seconds ~sz ~is_smoke ~trace workload =
  let base =
    [ "--child"; workload; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds ]
    @ (if is_smoke then [ "--smoke" ] else [])
  in
  let setups = List.init (sz.setup_runs - 1) (fun _ -> spawn_child ~args:(base @ [ "--setup-only" ])) in
  let trace_args =
    match trace with
    | None -> []
    | Some None -> [ "--trace"; "1" ]
    | Some (Some path) -> [ "--trace"; path ]
  in
  let child = spawn_child ~args:(base @ trace_args) in
  let all f = Array.of_list (List.map f (child :: setups)) in
  { w_name = workload;
    setup = median_of "setup_s" "s" (all (fun c -> c.setup_s));
    raw_setup = median_of "raw.setup_s" "s" (all (fun c -> c.raw_setup_s));
    child }

let print_report ~trace m =
  let c = m.child in
  Printf.printf "== %s: %d attempted, %d failed ==\n" m.w_name c.attempted c.failed;
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) c.failures;
  let show m =
    let v = match m.value with Some v -> Printf.sprintf "%.6g" v | None -> "refused" in
    let q =
      match m.quartiles with Some (q1, q3) -> Printf.sprintf "  q1 %.6g  q3 %.6g" q1 q3 | None -> ""
    in
    Printf.printf "  %-40s %14s %-10s n %d%s\n" m.name v m.unit_ m.n q
  in
  List.iter show (m.setup :: c.metrics);
  Printf.printf "  unscaled, as this host ran them:\n";
  List.iter show (m.raw_setup :: c.raw);
  Printf.printf "  %-10s %6s %12s %14s %12s\n" "bench" "ops" "events" "events/s" "op_ms_p50";
  List.iter
    (fun r ->
      Printf.printf "  %-10s %6d %12d %14.0f %12.3f\n" r.r_bench r.r_ops r.r_events
        (float_of_int r.r_events /. (r.r_ms /. 1e3))
        r.r_op_ms_p50)
    c.rows;
  if trace then begin
    List.iter show c.layers;
    let self = List.fold_left (fun a (t : Trace.total) -> a + t.Trace.self_ns) 0 c.breakdown in
    Printf.printf "  %-32s %8s %12s %12s %7s\n" "span" "calls" "total_ms" "self_ms" "self%";
    List.iter
      (fun (t : Trace.total) ->
        Printf.printf "  %-32s %8d %12.2f %12.2f %6.1f%%\n" t.Trace.name t.Trace.calls
          (ns_ms t.Trace.total_ns) (ns_ms t.Trace.self_ns)
          (100.0 *. float_of_int t.Trace.self_ns /. float_of_int (max 1 self)))
      c.breakdown
  end

let workload_json m =
  let c = m.child in
  Json.Obj
    [
      ("attempted", Json.Int c.attempted);
      ("failed", Json.Int c.failed);
      ("failures", Json.List (List.map (fun s -> Json.String s) c.failures));
      ("metrics", Json.Obj (List.map (fun x -> (x.name, metric_json x)) (m.setup :: c.metrics)));
      ("raw", Json.Obj (List.map (fun x -> (x.name, metric_json x)) (m.raw_setup :: c.raw)));
      ("per_layer", Json.Obj (List.map (fun x -> (x.name, metric_json x)) c.layers));
      ( "rows",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [ ("bench", Json.String r.r_bench); ("ops", Json.Int r.r_ops);
                   ("events", Json.Int r.r_events); ("busy_s", Json.Float (r.r_ms /. 1e3));
                   ("op_ms_p50", Json.Float r.r_op_ms_p50) ])
             c.rows) );
      ( "spans",
        Json.List
          (List.map
             (fun (t : Trace.total) ->
               Json.Obj
                 [ ("name", Json.String t.Trace.name); ("calls", Json.Int t.Trace.calls);
                   ("total_ms", Json.Float (ns_ms t.Trace.total_ns));
                   ("self_ms", Json.Float (ns_ms t.Trace.self_ns)) ])
             c.breakdown) );
    ]

(* The last line, for tools that read the result.  Untraced runs report the
   end-to-end metrics, traced runs the per-layer ones; a refused
   percentile or a metric the workload does not exercise reads 0. *)
let summary_line ~trace measured =
  let attempted = List.fold_left (fun a m -> a + m.child.attempted) 0 measured in
  let failed = List.fold_left (fun a m -> a + m.child.failed) 0 measured in
  let prefix m = match measured with [ _ ] -> "" | _ -> m.w_name ^ "." in
  let metrics =
    List.concat_map
      (fun m ->
        List.map
          (fun x ->
            ( prefix m ^ x.name,
              Json.Obj
                [ ("value", Json.Float (Option.value ~default:0.0 x.value)); ("unit", Json.String x.unit_) ] ))
          (if trace then m.child.layers else m.setup :: m.child.metrics))
      measured
  in
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool (failed = 0)); ("attempted", Json.Int attempted);
         ("failed", Json.Int failed); ("metrics", Json.Obj metrics) ])

(* --smoke: every workload, tiny and traced; assert the harness itself. *)
let smoke_problems measured =
  List.concat_map
    (fun m ->
      let have = List.map (fun x -> x.name) (m.setup :: m.child.metrics @ m.child.layers) in
      let missing =
        List.filter (fun name -> not (List.mem name have))
          (List.map fst end_to_end @ [ "interp.ns_per_event"; "server.resumes"; "bench.trace_overhead_frac" ])
      in
      List.map (fun name -> Printf.sprintf "%s: metric %s missing" m.w_name name) missing
      @ (if m.child.failed > 0 then [ Printf.sprintf "%s: %d failed" m.w_name m.child.failed ] else [])
      @ if m.child.attempted = 0 then [ m.w_name ^ ": nothing attempted" ] else [])
    measured

let () =
  let workloads_sel = ref [] in
  let seed = ref 1 in
  let seconds = ref 10.0 in
  let trace = ref None in
  let json = ref None in
  let smoke_mode = ref false in
  let child = ref None in
  let setup_only = ref false in
  let result = ref None in
  let serve = ref None in
  let set_trace = function
    | "0" -> trace := None
    | "1" -> trace := Some None
    | path -> trace := Some (Some path)
  in
  let specs =
    [
      ("--workload", Arg.String (fun w -> workloads_sel := !workloads_sel @ [ w ]),
       "NAME  run this workload (repeatable; default all): " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  timed seconds per workload (default 10)");
      ("--trace", Arg.String set_trace, "0|1|FILE  traced run; FILE also gets the Chrome trace");
      ("--json", Arg.String (fun f -> json := Some f), "FILE  write every metric, row and span total");
      ("--smoke", Arg.Set smoke_mode, " tiny traced run of every workload that asserts the harness");
      ("--child", Arg.String (fun w -> child := Some w), "NAME  (internal) run one workload here");
      ("--setup-only", Arg.Set setup_only, " (internal) stop after set-up");
      ("--result", Arg.String (fun f -> result := Some f), "FILE  (internal) child result file");
      ( "--serve",
        (let sock = ref "" and dir = ref "" in
         Arg.Tuple
           [ Arg.Set_string sock; Arg.Set_string dir;
             Arg.Int (fun ingest -> serve := Some (!sock, !dir, ingest)) ]),
        "SOCKET STATE INGEST_MAX  (internal) run the daemon" );
    ]
  in
  let usage = "pipeline.exe [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1|FILE] [--json FILE]" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let sz = if !smoke_mode then smoke else full in
  let seconds = if !smoke_mode then 0.0 else !seconds in
  match (!serve, !child) with
  | Some (socket_path, state_dir, ingest_max), _ -> Daemon.serve ~socket_path ~state_dir ~ingest_max
  | None, Some workload ->
    let trace = if !smoke_mode && !trace = None then Some None else !trace in
    let r =
      run_child ~workload ~seed:!seed ~seconds ~sz ~is_smoke:!smoke_mode ~setup_only:!setup_only
        ~trace
    in
    Out_channel.with_open_bin (Option.get !result) (fun oc -> output_value oc r)
  | None, None ->
    let selected = if !workloads_sel = [] then List.map fst workloads else !workloads_sel in
    List.iter
      (fun w ->
        if not (List.mem_assoc w workloads) then begin
          Printf.eprintf "pipeline: unknown workload %s\n" w;
          exit 2
        end)
      selected;
    mkdir_p state_root;
    let trace = if !smoke_mode && !trace = None then Some None else !trace in
    let trace_for w =
      match trace with
      | Some (Some path) when List.length selected > 1 ->
        Some (Some (Filename.remove_extension path ^ "." ^ w ^ ".json"))
      | t -> t
    in
    let measured =
      List.map
        (fun w ->
          measure ~seed:!seed ~seconds ~sz ~is_smoke:!smoke_mode
            ~trace:(trace_for w) w)
        selected
    in
    (try Unix.rmdir state_root with Unix.Unix_error _ -> ());
    let traced = trace <> None in
    List.iter (print_report ~trace:traced) measured;
    Option.iter
      (fun path ->
        let doc =
          Json.Obj
            [ ("seed", Json.Int !seed); ("seconds", Json.Float seconds); ("traced", Json.Bool traced);
              ("workloads", Json.Obj (List.map (fun m -> (m.w_name, workload_json m)) measured)) ]
        in
        Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string doc ^ "\n")))
      !json;
    let problems = if !smoke_mode then smoke_problems measured else [] in
    List.iter (Printf.eprintf "pipeline smoke: %s\n") problems;
    print_endline (summary_line ~trace:traced measured);
    if problems <> [] then exit 1
