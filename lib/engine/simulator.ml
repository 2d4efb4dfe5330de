open Regionsel_isa
module Image = Regionsel_workload.Image
module Telemetry = Regionsel_telemetry.Telemetry

type result = {
  image : Image.t;
  policy_name : string;
  ctx : Context.t;
  stats : Stats.t;
  edges : Edge_profile.t;
  icache : Icache.t;
  halted : bool;
  fault_log : Faults.log option;
}

type observer = {
  on_context : Context.t -> unit;
      (** Called once, right after the run's [Context] (and hence its code
          cache) is created — the sanitizer installs its cache auditor
          here. *)
  on_step :
    step:int ->
    block:Block.t ->
    taken:bool ->
    next:Addr.t ->
    believed:Addr.t ->
    unit;
      (** Called after every interpreter step, before the mode handlers run:
          [block]/[taken]/[next] are the interpreter's ground truth for the
          step, [believed] is the start address region mode believes it just
          executed ([Addr.none] while interpreting).  The loop invariant is
          [believed = block.start] whenever in region mode — the sanitizer's
          divergence rule. *)
}

(* Checkpoint plumbing.  A [section] is one independently recoverable unit
   of warm state: the persistence layer frames, checksums and versions each
   one separately, so a torn or bit-flipped section degrades alone — its
   subsystem re-warms from scratch — instead of poisoning the whole
   snapshot.  Loaders raise [Failure] on malformed streams and (apart from
   the fault-cursor commit, which is ordered first) mutate nothing until
   the stream has parsed. *)
type section = {
  sec_name : string;
  sec_save : (int -> unit) -> unit;
  sec_load : (unit -> int) -> unit;
}

type internals = {
  int_ctx : Context.t;
  int_stats : Stats.t;
  int_sections : section list;
}

(* Floats ride the int stream as two 32-bit halves of their IEEE bits:
   [Int64.to_int] of a full 64-bit pattern would lose the top bit. *)
let emit_float emit f =
  let bits = Int64.bits_of_float f in
  emit (Int64.to_int (Int64.logand bits 0xFFFFFFFFL));
  emit (Int64.to_int (Int64.shift_right_logical bits 32))

let read_float read =
  let lo = read () in
  let hi = read () in
  if lo < 0 || lo > 0xFFFFFFFF || hi < 0 || hi > 0xFFFFFFFF then
    failwith "Simulator: malformed float in snapshot";
  Int64.float_of_bits (Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32))

(* Stable codes for the fault-log labels ([Faults.label] plus the
   watchdog's own "bailout" entries). *)
let ev_labels = [| "smc"; "translation"; "async-exit"; "shock"; "crash"; "bailout" |]

let ev_label_code l =
  let rec go i =
    if i >= Array.length ev_labels then failwith ("Simulator: unknown event label " ^ l)
    else if String.equal ev_labels.(i) l then i
    else go (i + 1)
  in
  go 0

let ev_label_of_code c =
  if c < 0 || c >= Array.length ev_labels then
    failwith "Simulator: bad event-label code in snapshot"
  else ev_labels.(c)

(* The execution mode is a [Region.t ref] holding [Region.dummy] while
   interpreting, plus an int cell for the node id within the region
   ([cur_node]).  Physical equality against the sentinel replaces an
   option match, so entering or crossing regions is a plain store and
   never allocates.  The cached-mode loop keeps its own copies of both in
   locals and stores them back when it stops, so the refs are exact
   wherever anything else reads them: exits, faults, the watchdog,
   invalidations and saves. *)

(* A resumable run: the hot loop bounded by a step limit instead of owning
   the whole budget, so a scheduler can multiplex many runs in bounded
   batches.  The closures share the run's state; nothing outside them can
   observe a half-stepped simulator. *)
type t = {
  h_advance : int -> unit;
  h_finish : unit -> result;
  h_steps : unit -> int;
  h_halted : unit -> bool;
  h_max_steps : int;
  h_set_quota : int option -> unit;
  h_bytes_used : unit -> int;
  h_sample : (step:int -> stats:Stats.t -> ctx:Context.t -> unit) -> unit;
  h_internals : unit -> internals;
}

(* The recording a run that records nothing holds: never written, as
   [has_record] guards every append, so no run allocates a recorder of
   its own unless it records. *)
let no_recording = Branch_stream.recorder ~capacity:0 ()

(* How the cached-mode loop stopped. *)
let cached_running = 0
let cached_done = 1 (* a step completed in the cache; the caller ends it *)
let cached_exit = 2 (* a step took an unlinked exit; the caller leaves the region *)
let cached_dry = 3 (* the event source is dry; no step was taken *)

let create ?(params = Params.default) ?(seed = 1L) ?(telemetry = Telemetry.none)
    ?(save_telemetry = true) ?observer ?restore ?record ?replay ~policy ~max_steps image =
  let program = image.Image.program in
  let ctx = Context.create ~params ~telemetry program in
  (match observer with None -> () | Some o -> o.on_context ctx);
  let cache = ctx.Context.cache in
  let policy_mod = policy in
  let policy_name = Policy.name policy_mod in
  (* A ref, not a binding: a crash fault re-instantiates the policy from
     scratch, and restoring a snapshot replaces it with the saved one. *)
  let policy = ref (Policy.instantiate policy_mod ctx) in
  let interp = Interp.create image ~seed in
  let stats = Stats.create () in
  let edges = Edge_profile.create ~program () in
  (* The line size comes from the code cache, which computes each placed
     node's line span with it. *)
  let icache =
    Icache.create ~size_bytes:params.Params.icache_size_bytes
      ~line_bytes:(Code_cache.icache_line_bytes cache) ~ways:params.Params.icache_ways ()
  in
  let cur_region = ref Region.dummy in (* dummy = interpreting *)
  let cur_node = ref 0 in (* node id within !cur_region *)
  let halted = ref false in
  (* Fault machinery.  On clean runs ([faults = None]) all of this
     collapses to one always-false branch per step. *)
  let faults =
    match params.Params.faults with
    | None -> None
    | Some profile -> Some (Faults.create ~profile ~seed ~program ~max_steps)
  in
  let fault_next = ref (match faults with None -> max_int | Some f -> Faults.next_step f) in
  let bail_until = ref (-1) in
  let bail_exit_pending = ref false in
  let next_window = ref (match faults with None -> max_int | Some _ -> params.Params.watchdog_window) in
  let peak_share = ref 0.0 in
  (* The watchdog works off frozen counter snapshots (Stats.snapshot /
     Stats.diff) rather than reading live mutable fields mid-run. *)
  let window_start = ref (Stats.snapshot stats) in
  let ev_log = ref [] in
  let sample_log = ref [] in
  (* Hot-loop scratch: one step record and one policy event, reused for
     every interpreted block so the per-step path allocates nothing. *)
  let sbuf = Interp.make_step () in
  (* Branch-event source: the live interpreter, or a recorded stream.  The
     clean-run fast path keeps the direct [Interp.step_into] call; replay
     pays one option compare per step either way.  An empty recording is
     bound to the program, so it holds each step as its packed field. *)
  let replay_stream = Option.map Branch_stream.of_events replay in
  Option.iter (fun ev -> Branch_stream.bind ev (Branch_stream.layout program)) record;
  let has_record = Option.is_some record in
  let rec_events = Option.value record ~default:no_recording in
  let ib = { Policy.block = Program.block_of_id program 0; taken = false; next = Addr.none } in
  let interp_event = Policy.Interp_block ib in
  (* Selection events are policy decisions, stamped before the install is
     attempted; the node-list walk only happens with a live sink. *)
  let emit_select (spec : Region.spec) =
    match telemetry with
    | None -> ()
    | Some _ ->
      let nodes = spec.Region.nodes in
      Telemetry.select telemetry ~step:stats.Stats.steps ~n_blocks:(List.length nodes)
        ~n_insts:(List.fold_left (fun acc (b : Block.t) -> acc + b.Block.size) 0 nodes)
  in
  let links = Flat_tbl.create 64 in
  let record_link ~(from : Region.t) ~(into : Region.t) =
    (* Packed int key, as in the region exit log: no tuple, no hash layer. *)
    let key = (from.Region.id lsl 32) lor into.Region.id in
    if not (Flat_tbl.mem links key) then begin
      Flat_tbl.set links key 1;
      stats.Stats.links <- stats.Stats.links + 1
    end
  in
  (* A rejected install is reported back to the policy as an invalidation
     of the would-be entry: the policy drops its profiling state for the
     entry and can re-select it later — without this, a policy that
     believes it installed a region never retries, and one translation
     failure kills the entry for the rest of the run. *)
  let rec install_if_any = function
    | Policy.No_action -> ()
    | Policy.Install specs ->
      if stats.Stats.steps <= !bail_until then begin
        (* Bailed out: the system is interpreting through a cooldown and
           suppresses region formation entirely. *)
        stats.Stats.install_rejects <- stats.Stats.install_rejects + List.length specs;
        List.iter
          (fun (spec : Region.spec) ->
            emit_select spec;
            reject_spec spec)
          specs
      end
      else begin
        Code_cache.set_now cache stats.Stats.steps;
        List.iter
          (fun (spec : Region.spec) ->
            emit_select spec;
            match Code_cache.install cache spec with
            | Ok _ -> stats.Stats.installs <- stats.Stats.installs + 1
            | Error _ ->
              stats.Stats.install_rejects <- stats.Stats.install_rejects + 1;
              reject_spec spec)
          specs
      end
  and reject_spec (spec : Region.spec) =
    Gauges.set_blacklisted ctx.Context.gauges (Code_cache.n_blacklisted cache);
    install_if_any
      (Policy.handle !policy (Policy.Region_invalidated { entry = spec.Region.entry }))
  in
  let interpret_step (block : Block.t) (s : Interp.step) =
    stats.Stats.interpreted_insts <- stats.Stats.interpreted_insts + block.Block.size;
    ib.Policy.block <- block;
    ib.Policy.taken <- s.Interp.taken;
    ib.Policy.next <- s.Interp.next;
    install_if_any (Policy.handle !policy interp_event);
    let a = s.Interp.next in
    if Addr.is_none a then halted := true
    else if s.Interp.taken && stats.Stats.steps > !bail_until then begin
      let id = Program.block_id program a in
      match Code_cache.dispatch cache id with
      | Some region ->
        stats.Stats.dispatches <- stats.Stats.dispatches + 1;
        Telemetry.dispatch telemetry ~step:stats.Stats.steps ~id:region.Region.id;
        Region.record_entry region;
        cur_region := region;
        (* A dispatch hit is at the region's entry or an aux entry, both
           nodes of the region, so the translation is never -1. *)
        cur_node := Region.node_of_block_id region id
      | None -> ()
    end
  in
  (* An unlinked exit from cached code, taken from node [!cur_node] of
     [!cur_region] on the step in [sbuf] (the cached-mode loop stopped
     there and stored its counters back).  The exit is counted in the
     node's exit slot; the dispatch array decides where control goes: a
     hit is a region transition, and patches the exit's link slot so the
     next exit along it stays in the loop; a miss returns to the
     interpreter through the policy. *)
  let leave_region () =
    let region = !cur_region and node = !cur_node in
    let block = Program.block_of_id program sbuf.Interp.block_id in
    let a = sbuf.Interp.next in
    let id = Program.block_id program a in
    Region.record_exit_at region ~node ~taken:sbuf.Interp.taken ~from:block.Block.start ~tgt:a;
    match Code_cache.dispatch cache id with
    | Some other ->
      stats.Stats.region_transitions <- stats.Stats.region_transitions + 1;
      record_link ~from:region ~into:other;
      Code_cache.add_link cache ~from:region ~slot:id ~target:other;
      Gauges.set_links ctx.Context.gauges (Code_cache.n_links cache);
      Region.record_entry other;
      cur_region := other;
      cur_node := Region.node_of_block_id other id
    | None -> (
      stats.Stats.cache_exits_to_interp <- stats.Stats.cache_exits_to_interp + 1;
      install_if_any
        (Policy.handle !policy
           (Policy.Cache_exited
              { from_entry = region.Region.entry; src = Block.last block; tgt = a }));
      (* The paper's "jump newT": if the policy just installed a region
         at the pending target, enter it without interpreting. *)
      match Code_cache.dispatch cache id with
      | Some fresh ->
        stats.Stats.dispatches <- stats.Stats.dispatches + 1;
        Telemetry.dispatch telemetry ~step:stats.Stats.steps ~id:fresh.Region.id;
        Region.record_entry fresh;
        cur_region := fresh;
        cur_node := Region.node_of_block_id fresh id
      | None -> cur_region := Region.dummy)
  in
  (* Retired regions are reported to the policy so it drops stale
     observation state; the region being executed loses its claim to the
     program counter immediately. *)
  let deliver_invalidations retired =
    List.iter
      (fun (r : Region.t) ->
        if !cur_region == r then cur_region := Region.dummy;
        install_if_any
          (Policy.handle !policy (Policy.Region_invalidated { entry = r.Region.entry })))
      retired;
    Gauges.set_blacklisted ctx.Context.gauges (Code_cache.n_blacklisted cache);
    Gauges.set_links ctx.Context.gauges (Code_cache.n_links cache)
  in
  let fault_code = function
    | Faults.Smc_write _ -> 0
    | Faults.Translation_failure _ -> 1
    | Faults.Async_exit -> 2
    | Faults.Cache_shock _ -> 3
    | Faults.Crash -> 4
  in
  let apply_fault ev =
    stats.Stats.faults_injected <- stats.Stats.faults_injected + 1;
    ev_log := (stats.Stats.steps, Faults.label ev) :: !ev_log;
    Code_cache.set_now cache stats.Stats.steps;
    Telemetry.fault telemetry ~step:stats.Stats.steps ~code:(fault_code ev);
    match ev with
    | Faults.Smc_write { lo; hi } ->
      deliver_invalidations (Code_cache.invalidate_range cache ~lo ~hi)
    | Faults.Translation_failure { window } -> Code_cache.arm_translation_failures cache ~window
    | Faults.Async_exit ->
      if !cur_region != Region.dummy then begin
        cur_region := Region.dummy;
        stats.Stats.async_exits <- stats.Stats.async_exits + 1
      end
    | Faults.Cache_shock { bytes } -> deliver_invalidations (Code_cache.shock cache ~bytes)
    | Faults.Crash ->
      (* The optimizer process dies and restarts: every warm optimizer
         structure is lost — live regions, links, the blacklist, live
         profiling counters, policy state, any claim on the program
         counter — while the program itself (interpreter state) and the
         run's accumulated metrics persist.  No invalidations are
         delivered: the policy that would receive them died with the
         cache. *)
      cur_region := Region.dummy;
      ignore (Code_cache.flush_all cache : Region.t list);
      Code_cache.reset_blacklist cache;
      Counters.reset ctx.Context.counters;
      Gauges.add_observed_bytes ctx.Context.gauges
        (-Gauges.observed_bytes ctx.Context.gauges);
      Gauges.set_blacklisted ctx.Context.gauges 0;
      Gauges.set_links ctx.Context.gauges 0;
      policy := Policy.instantiate policy_mod ctx
  in
  (* The bailout watchdog (fault runs only): sample the cached-instruction
     share over a sliding window; if it collapses relative to its peak
     while regions are still resident, selection is thrashing — flush
     everything and interpret through a cooldown. *)
  let watchdog () =
    (* Window boundaries are observation points: drain the edge ring so the
       snapshot-aligned state of the profile is exact. *)
    Edge_profile.flush edges;
    let now_snap = Stats.snapshot stats in
    let d = Stats.diff ~earlier:!window_start ~later:now_snap in
    window_start := now_snap;
    let cached_d = d.Stats.cached_insts in
    let interp_d = d.Stats.interpreted_insts in
    let total = cached_d + interp_d in
    let share = if total = 0 then 0.0 else float_of_int cached_d /. float_of_int total in
    sample_log := (stats.Stats.steps, share) :: !sample_log;
    if share > !peak_share then peak_share := share;
    if
      stats.Stats.faults_injected > 0
      && !bail_until < stats.Stats.steps
      && !peak_share >= 0.5
      && share < params.Params.watchdog_min_share *. !peak_share
    then begin
      ev_log := (stats.Stats.steps, "bailout") :: !ev_log;
      Code_cache.set_now cache stats.Stats.steps;
      let retired = Code_cache.flush_all cache in
      stats.Stats.bailouts <- stats.Stats.bailouts + 1;
      bail_until := stats.Stats.steps + params.Params.bailout_cooldown;
      bail_exit_pending := true;
      Telemetry.bailout_enter telemetry ~step:stats.Stats.steps ~until:!bail_until;
      deliver_invalidations retired
    end;
    next_window := stats.Stats.steps + params.Params.watchdog_window
  in
  (* Loop-state section codec: the refs above plus the fault cursor, the
     event/sample logs and the link-dedup table — everything the hot loop
     owns that is not already inside a subsystem with its own section. *)
  let save_loop emit =
    let r = !cur_region in
    emit (if r == Region.dummy then -1 else r.Region.id);
    (* Retired slot (a region-position address once); written as
       [Addr.none] and ignored on load, so the section layout stays at
       version 1. *)
    emit Addr.none;
    emit !cur_node;
    emit (if !halted then 1 else 0);
    emit !bail_until;
    emit (if !bail_exit_pending then 1 else 0);
    emit !next_window;
    emit_float emit !peak_share;
    Stats.save !window_start emit;
    (match faults with
    | None -> emit 0
    | Some f ->
      emit 1;
      emit (Faults.cursor f));
    emit (List.length !ev_log);
    List.iter
      (fun (step, l) ->
        emit step;
        emit (ev_label_code l))
      !ev_log;
    emit (List.length !sample_log);
    List.iter
      (fun (step, v) ->
        emit step;
        emit_float emit v)
      !sample_log;
    emit (Flat_tbl.length links);
    List.iter
      (fun (k, v) ->
        emit k;
        emit v)
      (Flat_tbl.sorted_pairs links)
  in
  let load_loop read =
    let read_bool what =
      match read () with
      | 0 -> false
      | 1 -> true
      | _ -> failwith ("Simulator: bad flag in snapshot: " ^ what)
    in
    let rid = read () in
    let (_ : int) = read () in
    let node = read () in
    let halted' = read_bool "halted" in
    let bail_until' = read () in
    let bail_exit_pending' = read_bool "bail-exit-pending" in
    let next_window' = read () in
    let peak_share' = read_float read in
    let window_start' = Stats.create () in
    Stats.load window_start' read;
    let fault_cursor =
      match read () with
      | 0 -> None
      | 1 -> Some (read ())
      | _ -> failwith "Simulator: bad fault-cursor tag in snapshot"
    in
    let read_len what =
      let n = read () in
      if n < 0 then failwith ("Simulator: negative length in snapshot: " ^ what);
      n
    in
    let ev_log' =
      List.init (read_len "event log") (fun _ ->
          let step = read () in
          (step, ev_label_of_code (read ())))
    in
    let sample_log' =
      List.init (read_len "sample log") (fun _ ->
          let step = read () in
          (step, read_float read))
    in
    let link_pairs =
      List.init (read_len "link table") (fun _ ->
          let k = read () in
          let v = read () in
          if k < 0 || v < 0 then failwith "Simulator: negative link entry in snapshot";
          (k, v))
    in
    (* Resolve the mode refs against the restored cache.  A region id that
       no longer resolves (the cache section was dropped and re-warmed
       empty) falls back to the interpreter rather than failing the whole
       section. *)
    (* With no live region ([rid < 0], or the cache section was dropped
       and re-warmed empty) the node id is scratch — region entry always
       sets it before region stepping reads it — so it is restored
       verbatim, to keep a re-encoded snapshot byte-identical to the one
       just loaded. *)
    let region', node' =
      if rid < 0 then (Region.dummy, node)
      else
        match Code_cache.region_by_id cache rid with
        | None -> (Region.dummy, node)
        | Some r ->
          if node < 0 || node >= Array.length r.Region.node_blocks then
            failwith "Simulator: region node out of range in snapshot";
          (r, node)
    in
    (* Commit.  The fault-cursor store goes first: [Faults.set_cursor] is
       the only committing call that can raise, and failing before any ref
       is written leaves the loop state untouched (fresh), which is the
       degraded-section contract. *)
    (match (faults, fault_cursor) with
    | Some f, Some c -> Faults.set_cursor f c
    | None, None -> ()
    | Some _, None | None, Some _ ->
      failwith "Simulator: snapshot fault profile does not match this run");
    fault_next := (match faults with None -> max_int | Some f -> Faults.next_step f);
    cur_region := region';
    cur_node := node';
    halted := halted';
    bail_until := bail_until';
    bail_exit_pending := bail_exit_pending';
    next_window := next_window';
    peak_share := peak_share';
    window_start := window_start';
    ev_log := ev_log';
    sample_log := sample_log';
    List.iter (fun (k, v) -> Flat_tbl.set links k v) link_pairs
  in
  let internals =
    let sec name save load = { sec_name = name; sec_save = save; sec_load = load } in
    (* Save/restore order is load order; "loop" goes last because its
       region reference resolves against the already-restored cache. *)
    {
      int_ctx = ctx;
      int_stats = stats;
      int_sections =
        [
          sec "interp" (Interp.save_warm interp) (Interp.load_warm interp);
          sec "stats" (Stats.save stats) (Stats.load stats);
          sec "edges" (Edge_profile.save edges) (Edge_profile.load edges);
          sec "icache" (Icache.save icache) (Icache.load icache);
          sec "counters"
            (Counters.save ctx.Context.counters)
            (Counters.load ctx.Context.counters);
          sec "gauges" (Gauges.save ctx.Context.gauges) (Gauges.load ctx.Context.gauges);
          sec "cache" (Code_cache.save cache) (Code_cache.load cache);
          sec "blacklist" (Code_cache.save_blacklist cache) (Code_cache.load_blacklist cache);
          sec "policy"
            (fun emit -> Policy.save !policy emit)
            (fun read -> policy := Policy.load policy_mod ctx read);
        ]
        @ (match telemetry with
          | Some tel when save_telemetry ->
            [ sec "telemetry" (Telemetry.save tel) (Telemetry.load tel) ]
          | Some _ | None -> [])
        @ [ sec "loop" save_loop load_loop ];
    }
  in
  (match restore with
  | None -> ()
  | Some f ->
    f internals;
    (* A snapshot and the run restoring it need not agree on
       instrumentation: a sink-less save carries no telemetry section,
       and a damaged cache or telemetry frame re-warms one side only.
       Reconcile the span ledger with the restored live set so the
       sanitizer's open-spans = live-regions rule holds from the first
       post-restore audit; a matched clean restore makes both passes
       no-ops. *)
    (match telemetry with
    | None -> ()
    | Some tel ->
      let step = stats.Stats.steps in
      let live = Code_cache.regions cache in
      List.iter
        (fun (r : Region.t) ->
          if not (Telemetry.span_open tel ~id:r.Region.id) then
            Telemetry.install (Some tel) ~step ~id:r.Region.id ~n_nodes:r.Region.n_nodes)
        live;
      (* Open spans are at most the live regions plus a few: a scan is
         cheap on this restore-only path. *)
      Telemetry.reconcile_spans tel ~step ~live:(fun id ->
          List.exists (fun (r : Region.t) -> r.Region.id = id) live)));
  (* Bailouts, fault arrival, and watchdog windows all require a fault
     profile, so a clean run folds their four per-step compares into this
     one hoisted, always-false branch. *)
  let has_events = faults <> None in
  (* The end of a step on a fault run: recovery accounting, the bailout's
     end, fault arrival and the watchdog, all at exact step indices. *)
  let after_step () =
    if stats.Stats.steps <= !bail_until then
      stats.Stats.recovery_steps <- stats.Stats.recovery_steps + 1
    else if !bail_exit_pending then begin
      bail_exit_pending := false;
      Telemetry.bailout_exit telemetry ~step:stats.Stats.steps
    end;
    if stats.Stats.steps >= !fault_next then begin
      (match faults with
      | Some f ->
        while Faults.next_step f <= stats.Stats.steps do
          apply_fault (Faults.pop f)
        done;
        fault_next := Faults.next_step f
      | None -> ())
    end;
    if stats.Stats.steps >= !next_window then watchdog ()
  in
  (* [limit] is the current advance bound, always <= max_steps; {!run}
     sets it to the full budget once, {!advance} raises it batch by
     batch. *)
  let limit = ref 0 in
  (* Cached mode: code in the cache runs on its own, as in the paper's
     Figure 1.  Starting at node [node0] of [region0], the loop follows
     the hot successor, any other internal edge, a self-dispatching side
     exit (a completed cycle) and linked exits (switching region in the
     loop), and stops only when control leaves the code cache or someone
     else must see the state:
     - an unlinked exit ([cached_exit]): the caller finishes the step in
       [leave_region];
     - a halt ([cached_done], [halted] set);
     - the step that reaches [bound] ([cached_done]): the advance limit,
       and on fault runs the next fault step or watchdog window, so the
       caller's [after_step] runs on each of those steps.  On the steps
       between, [after_step] has nothing to do: a bailout flushes the
       cache and no region is entered until the step after its cooldown,
       whose [after_step] (an interpreted step's) ends the bailout;
     - a dry event source ([cached_dry], [halted] set, no step taken).
     The loop-carried counters live in locals (registers or stack slots,
     never the heap records) and are stored back once, when the loop
     stops: the [Stats] counters the loop bumps, the icache's clock and
     misses, and the current region's executed instructions and
     completed cycles, which are kept as deltas and stored back at each
     region switch too.  Counters that move in step with another are
     derived from it, not carried.  Nothing the loop calls reads them:
     the observer is handed the exact step index, the icache kernel is
     handed the clock, and the link path touches only the exit slots and
     entry counts, which it updates in place. *)
  let run_cached (region0 : Region.t) node0 =
    let bound = if has_events then min !limit (min !fault_next !next_window) else !limit in
    let steps0 = stats.Stats.steps in
    let steps = ref steps0
    and taken_branches = ref stats.Stats.taken_branches
    and link_hits = ref stats.Stats.link_hits
    and transitions = ref stats.Stats.region_transitions in
    let region = ref region0 and node = ref node0 in
    (* Every cached step adds its block's instructions to [insts], which
       is never reset: the loop's [cached_insts] share at the end, and
       minus [region_mark] (its value when the current region was entered)
       the current region's.  Every cached step is a node step, so
       [node_steps] grows by the steps taken. *)
    let insts = ref 0 and region_mark = ref 0 and cycles = ref 0 in
    let icache_clock = ref (Icache.clock icache)
    and icache_misses = ref (Icache.misses icache) in
    let status = ref cached_running in
    while !status = cached_running do
      if
        not
          (match replay_stream with
          | None -> Interp.step_into interp sbuf
          | Some stream -> Branch_stream.next_into stream sbuf)
      then begin
        halted := true;
        status := cached_dry
      end
      else begin
        let step = !steps + 1 in
        steps := step;
        if has_record then Branch_stream.append rec_events sbuf;
        let taken = sbuf.Interp.taken in
        if taken then incr taken_branches;
        let block = Program.block_of_id program sbuf.Interp.block_id in
        let a = sbuf.Interp.next in
        if not (Addr.is_none a) then
          Edge_profile.record_step edges ~block_id:sbuf.Interp.block_id ~taken
            ~src:block.Block.start ~dst:a;
        let r = !region and nd = !node in
        (match observer with
        | None -> ()
        | Some o ->
          o.on_step ~step ~block ~taken ~next:a
            ~believed:(Array.unsafe_get r.Region.node_blocks nd).Block.start);
        insts := !insts + block.Block.size;
        (* The fetch: the node's icache line span, computed when the
           region was placed. *)
        if r.Region.cache_base >= 0 then begin
          let lines = r.Region.node_lines in
          let first = Array.unsafe_get lines (nd lsl 1)
          and last = Array.unsafe_get lines ((nd lsl 1) + 1) in
          icache_misses :=
            !icache_misses + Icache.fetch_span icache ~clock:!icache_clock ~first ~last;
          icache_clock := !icache_clock + (last - first + 1)
        end;
        if Addr.is_none a then begin
          halted := true;
          status := cached_done
        end
        else begin
          (* The common step is one compare against the node's compiled
             hot successor; the general internal edge is a bitset read. *)
          if a = Array.unsafe_get r.Region.hot_succ_addr nd then begin
            let nid = Array.unsafe_get r.Region.hot_succ_node nd in
            if nid = 0 then incr cycles;
            node := nid
          end
          else begin
            let id = Program.block_id program a in
            let nid = Region.node_of_block_id r id in
            if nid >= 0 && Region.has_edge_nodes r ~src:nd ~dst:nid then begin
              if nid = 0 then incr cycles;
              node := nid
            end
            else
              match Region.link_target r id with
              | Some other ->
                (* Linked exit stub: jump region-to-region without
                   dispatching.  The (from, into) pair was recorded when
                   the link was made. *)
                incr link_hits;
                Region.record_exit_at r ~node:nd ~taken ~from:block.Block.start ~tgt:a;
                incr transitions;
                Region.record_run r ~insts:(!insts - !region_mark) ~cycles:!cycles;
                region_mark := !insts;
                cycles := 0;
                Region.record_entry other;
                region := other;
                node := Region.node_of_block_id other id
              | None -> (
                match Code_cache.dispatch cache id with
                | Some other when other == r ->
                  (* A side exit linked back to this region's own entry:
                     execution stays put, and the paper's executed-cycle
                     metric counts it as a completed cycle, not an exit. *)
                  incr cycles;
                  node := Region.node_of_block_id r id
                | Some _ | None -> status := cached_exit)
          end;
          if step >= bound && !status = cached_running then status := cached_done
        end
      end
    done;
    Icache.store_counters icache ~clock:!icache_clock ~misses:!icache_misses;
    stats.Stats.steps <- !steps;
    stats.Stats.taken_branches <- !taken_branches;
    stats.Stats.cached_insts <- stats.Stats.cached_insts + !insts;
    stats.Stats.node_steps <- stats.Stats.node_steps + (!steps - steps0);
    stats.Stats.link_hits <- !link_hits;
    stats.Stats.region_transitions <- !transitions;
    Region.record_run !region ~insts:(!insts - !region_mark) ~cycles:!cycles;
    cur_region := !region;
    cur_node := !node;
    !status
  in
  (* The step loop.  An interpreted step runs here: the event, the shared
     profiling, the observer, then the policy and the dispatch probe.
     Cached steps run in [run_cached] until it stops. *)
  let rec loop () =
    if stats.Stats.steps >= !limit || !halted then ()
    else begin
      let r = !cur_region in
      if r != Region.dummy then begin
        let status = run_cached r !cur_node in
        if status = cached_exit then leave_region ();
        if has_events && status <> cached_dry then after_step ()
      end
      else if
        not
          (match replay_stream with
          | None -> Interp.step_into interp sbuf
          | Some stream -> Branch_stream.next_into stream sbuf)
      then halted := true
      else begin
        stats.Stats.steps <- stats.Stats.steps + 1;
        if has_record then Branch_stream.append rec_events sbuf;
        let taken = sbuf.Interp.taken in
        if taken then stats.Stats.taken_branches <- stats.Stats.taken_branches + 1;
        let block = Program.block_of_id program sbuf.Interp.block_id in
        let next = sbuf.Interp.next in
        if not (Addr.is_none next) then
          Edge_profile.record_step edges ~block_id:sbuf.Interp.block_id ~taken
            ~src:block.Block.start ~dst:next;
        (match observer with
        | None -> ()
        | Some o -> o.on_step ~step:stats.Stats.steps ~block ~taken ~next ~believed:Addr.none);
        interpret_step block sbuf;
        if has_events then after_step ()
      end;
      loop ()
    end
  in
  let advance upto =
    let upto = if upto > max_steps then max_steps else upto in
    if upto > !limit then limit := upto;
    loop ()
  in
  let finished = ref None in
  let finish () =
    match !finished with
    | Some r -> r
    | None ->
      limit := max_steps;
      loop ();
      (* End of run is the final observation point.  A save point at the
         end is taken before this (advance to the budget, save, finish),
         so the saved edge ring is what a mid-run save at this step would
         hold and restore-then-finish replays the flush identically. *)
      Edge_profile.flush edges;
      let fault_log =
        match faults with
        | None -> None
        | Some _ -> Some { Faults.events = List.rev !ev_log; samples = List.rev !sample_log }
      in
      let r = { image; policy_name; ctx; stats; edges; icache; halted = !halted; fault_log } in
      finished := Some r;
      r
  in
  (* Quota changes arrive from the multi-stream scheduler at batch
     boundaries; evictions they force go through the same invalidation
     delivery as faults and shocks, so the policy drops its stale state. *)
  let set_quota q =
    Code_cache.set_now cache stats.Stats.steps;
    deliver_invalidations (Code_cache.set_quota cache q)
  in
  {
    h_advance = advance;
    h_finish = finish;
    h_steps = (fun () -> stats.Stats.steps);
    h_halted = (fun () -> !halted);
    h_max_steps = max_steps;
    h_set_quota = set_quota;
    h_bytes_used = (fun () -> Code_cache.bytes_used cache);
    h_sample = (fun fn -> fn ~step:stats.Stats.steps ~stats ~ctx);
    h_internals = (fun () -> internals);
  }

let advance t ~upto = t.h_advance upto
let finish t = t.h_finish ()
let steps t = t.h_steps ()
let halted t = t.h_halted ()
let exhausted t = t.h_steps () >= t.h_max_steps || t.h_halted ()
let set_cache_quota t quota = t.h_set_quota quota
let cache_bytes_used t = t.h_bytes_used ()
let sample t fn = t.h_sample fn
let internals t = t.h_internals ()

let run ?params ?seed ?telemetry ?observer ?restore ?record ?replay ~policy ~max_steps
    image =
  finish
    (create ?params ?seed ?telemetry ?observer ?restore ?record ?replay ~policy ~max_steps
       image)
