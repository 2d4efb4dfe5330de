open Regionsel_isa
module Image = Regionsel_workload.Image
module Telemetry = Regionsel_telemetry.Telemetry
module Code_cache = Regionsel_engine.Code_cache
module Context = Regionsel_engine.Context
module Interp = Regionsel_engine.Interp
module Params = Regionsel_engine.Params
module Region = Regionsel_engine.Region
module Simulator = Regionsel_engine.Simulator
module Stats = Regionsel_engine.Stats

type violation = { step : int; rule : string; detail : string }

exception Check_violation of violation

let violation_to_string { step; rule; detail } =
  Printf.sprintf "invariant %S violated at step %d: %s" rule step detail

let () =
  Printexc.register_printer (function
    | Check_violation v -> Some (violation_to_string v)
    | _ -> None)

let fail ~step ~rule fmt =
  Printf.ksprintf (fun detail -> raise (Check_violation { step; rule; detail })) fmt

let audit_cache ?telemetry ~program cache ~step =
  (* Dispatch array: every slot holds a live region that claims the
     slot's block. *)
  for id = 0 to Program.n_blocks program - 1 do
    match Code_cache.dispatch cache id with
    | None -> ()
    | Some r ->
      if not (Code_cache.is_live cache r) then
        fail ~step ~rule:"dispatch-live" "dispatch slot %d holds retired region #%d" id
          r.Region.id;
      let node = Region.node_of_block_id r id in
      if node < 0 || not r.Region.node_is_entry.(node) then
        fail ~step ~rule:"dispatch-claim"
          "dispatch slot %d (%s) held by region #%d, whose entry is %s and which claims \
           no aux entry there"
          id
          (Addr.to_string (Program.block_of_id program id).Block.start)
          r.Region.id
          (Addr.to_string r.Region.entry)
  done;
  (* FIFO tombstone accounting (the compaction bound): the live elements,
     counted by walking the FIFO, are the FIFO minus its tombstones. *)
  let live = Code_cache.regions cache in
  let n_live = List.length live in
  let fifo_len = Code_cache.fifo_length cache in
  let tombstones = Code_cache.fifo_tombstones cache in
  if fifo_len - tombstones <> n_live then
    fail ~step ~rule:"fifo-accounting"
      "FIFO holds %d entries with %d tombstones but %d regions are live" fifo_len
      tombstones n_live;
  if tombstones > max 8 n_live then
    fail ~step ~rule:"fifo-tombstones" "%d tombstones against %d live regions (bound %d)"
      tombstones n_live (max 8 n_live);
  (* Link slots: no link outlives its target, and a link always agrees
     with the dispatch array (a linked jump lands exactly where a dispatch
     would have). *)
  List.iter
    (fun (r : Region.t) ->
      for slot = 0 to Region.n_link_slots r - 1 do
        match Region.link_target r slot with
        | None -> ()
        | Some tgt ->
          if not (Code_cache.is_live cache tgt) then
            fail ~step ~rule:"link-live" "region #%d slot %d links to retired region #%d"
              r.Region.id slot tgt.Region.id;
          (match Code_cache.dispatch cache slot with
          | Some d when d == tgt -> ()
          | Some d ->
            fail ~step ~rule:"link-dispatch"
              "region #%d slot %d links to region #%d but the slot dispatches to #%d"
              r.Region.id slot tgt.Region.id d.Region.id
          | None ->
            fail ~step ~rule:"link-dispatch"
              "region #%d slot %d links to region #%d but the slot dispatches nowhere"
              r.Region.id slot tgt.Region.id)
      done)
    live;
  (* Byte ledger. *)
  let live_bytes = List.fold_left (fun acc r -> acc + Region.cache_bytes r) 0 live in
  if Code_cache.bytes_used cache <> live_bytes then
    fail ~step ~rule:"bytes-accounting"
      "cache reports %d bytes used but the live regions sum to %d"
      (Code_cache.bytes_used cache) live_bytes;
  (* Step clock. *)
  if Code_cache.clock_regressions cache <> 0 then
    fail ~step ~rule:"clock-monotone" "set_now was handed a stale step %d time(s)"
      (Code_cache.clock_regressions cache);
  (* Quota bound: once installs and quota evictions have settled, the live
     footprint fits the tenant's quota (the multi-stream invariant). *)
  (match Code_cache.quota cache with
  | None -> ()
  | Some q ->
    if Code_cache.bytes_used cache > q then
      fail ~step ~rule:"quota-accounting"
        "cache holds %d bytes against a quota of %d" (Code_cache.bytes_used cache) q);
  (* Telemetry span ledger: open spans are exactly the live regions. *)
  match telemetry with
  | None -> ()
  | Some t ->
    List.iter
      (fun (r : Region.t) ->
        if not (Telemetry.span_open t ~id:r.Region.id) then
          fail ~step ~rule:"span-open" "live region #%d has no open telemetry span"
            r.Region.id)
      live;
    let open_spans = Telemetry.n_open_spans t in
    if open_spans <> n_live then
      fail ~step ~rule:"span-ledger"
        "telemetry has %d open spans but the cache holds %d live regions" open_spans
        n_live

let create ?(params = Params.default) ?(seed = 1L) ?telemetry ?(audit_every = 64) ?break_at
    ?restore ?record ?replay ~policy ~max_steps image =
  let t = match telemetry with Some t -> t | None -> Telemetry.create () in
  let program = image.Image.program in
  (* The shadow steps with the reference stepper: every checked run is then
     also a live threaded-vs-reference differential, step by step. *)
  let shadow = Interp.create image ~seed in
  let sh = Interp.make_step () in
  let cache_ref = ref None in
  let audit ~step =
    match !cache_ref with
    | None -> ()
    | Some cache -> audit_cache ~telemetry:t ~program cache ~step
  in
  let broken = ref false in
  (* Instruction accounting, rebuilt from the believed positions: a step
     with no believed block is interpreted, any other runs from the cache
     as one automaton node step. *)
  let exp_interp = ref 0 and exp_cached = ref 0 and exp_nodes = ref 0 in
  let observer =
    {
      Simulator.on_context =
        (fun ctx ->
          let cache = ctx.Context.cache in
          cache_ref := Some cache;
          Code_cache.set_auditor cache (fun _op -> audit ~step:(Code_cache.now cache)));
      on_step =
        (fun ~step ~block ~taken ~next ~believed ->
          (* Self-test corruption: clear a live region's dispatch slot
             once one exists, then let the audit below convict it. *)
          (match break_at with
          | Some at when (not !broken) && step >= at -> (
            match !cache_ref with
            | Some cache ->
              if Code_cache.unsafe_corrupt_for_tests cache then broken := true
            | None -> ())
          | Some _ | None -> ());
          (* Differential oracle: the shadow interpreter is the ground
             truth for what the program executes. *)
          if not (Interp.step_reference shadow sh) then
            fail ~step ~rule:"oracle-halt"
              "the run executed %s but the shadow interpreter has halted"
              (Addr.to_string block.Block.start);
          if not (Block.equal (Interp.block shadow sh) block) then
            fail ~step ~rule:"oracle-block"
              "the run executed block %s but the shadow interpreter executed %s"
              (Addr.to_string block.Block.start)
              (Addr.to_string (Interp.block shadow sh).Block.start);
          if sh.Interp.taken <> taken then
            fail ~step ~rule:"oracle-branch"
              "block %s: the run saw taken=%b but the shadow interpreter saw %b"
              (Addr.to_string block.Block.start)
              taken sh.Interp.taken;
          if not (Addr.equal sh.Interp.next next) then
            fail ~step ~rule:"oracle-target"
              "block %s: the run continues at %s but the shadow interpreter at %s"
              (Addr.to_string block.Block.start)
              (Addr.to_string next)
              (Addr.to_string sh.Interp.next);
          (* Region mode must believe it executed the block the
             interpreter actually executed. *)
          if (not (Addr.is_none believed)) && not (Addr.equal believed block.Block.start)
          then
            fail ~step ~rule:"region-position"
              "region mode believes it executed %s but the interpreter executed %s"
              (Addr.to_string believed)
              (Addr.to_string block.Block.start);
          if Addr.is_none believed then exp_interp := !exp_interp + block.Block.size
          else begin
            exp_cached := !exp_cached + block.Block.size;
            incr exp_nodes
          end;
          if audit_every > 0 && step mod audit_every = 0 then audit ~step);
    }
  in
  (* Restoring a snapshot fast-forwards the run to its saved position; the
     shadow oracle must follow, or every subsequent step would "diverge".
     The run's own interp section — already restored by the caller's hook —
     is replayed into the shadow, which puts its pc, stack and every PRNG
     stream at exactly the restored position.  The accounting baseline is
     the restored counters, so the end-of-run check compares deltas. *)
  let base = ref (Stats.create ()) in
  let restore =
    Option.map
      (fun f (internals : Simulator.internals) ->
        f internals;
        base := Stats.snapshot internals.Simulator.int_stats;
        match
          List.find_opt
            (fun (s : Simulator.section) -> String.equal s.Simulator.sec_name "interp")
            internals.Simulator.int_sections
        with
        | None -> ()
        | Some s ->
          let ints = ref [] in
          s.Simulator.sec_save (fun v -> ints := v :: !ints);
          let arr = Array.of_list (List.rev !ints) in
          let i = ref 0 in
          Interp.load_warm shadow (fun () ->
              let v = arr.(!i) in
              incr i;
              v))
      restore
  in
  let sim =
    (* The audit's own recorder stays out of the run's snapshot: a caller
       that passed none saves a plain run's sections. *)
    Simulator.create ~params ~seed ~telemetry:(Some t) ~save_telemetry:(telemetry <> None)
      ~observer ?restore ?record ?replay ~policy ~max_steps image
  in
  let finish () =
    let result = Simulator.finish sim in
    let stats = result.Simulator.stats in
    let final = stats.Stats.steps in
    let account what counter expected =
      let counted = counter stats - counter !base in
      if counted <> expected then
        fail ~step:final ~rule:"insts-accounting"
          "the run counted %d %s but its believed positions account for %d" counted what
          expected
    in
    account "interpreted instructions" (fun s -> s.Stats.interpreted_insts) !exp_interp;
    account "cached instructions" (fun s -> s.Stats.cached_insts) !exp_cached;
    account "node steps" (fun s -> s.Stats.node_steps) !exp_nodes;
    audit ~step:final;
    Telemetry.finish t ~step:final;
    List.iter
      (fun (s : Telemetry.span) ->
        if s.Telemetry.retired_at < s.Telemetry.installed_at then
          fail ~step:final ~rule:"span-duration"
            "region #%d's span runs backwards: installed at %d, retired at %d"
            s.Telemetry.id s.Telemetry.installed_at s.Telemetry.retired_at)
      (Telemetry.spans t);
    let closed = List.length (Telemetry.spans t) in
    if closed <> Telemetry.n_installs t then
      fail ~step:final ~rule:"span-count"
        "telemetry recorded %d installs but closed %d spans" (Telemetry.n_installs t)
        closed;
    (* The audit's own recorder stays private: a caller that passed none
       gets a plain run's result. *)
    match telemetry with
    | Some _ -> result
    | None ->
      let ctx = { result.Simulator.ctx with Context.telemetry = Telemetry.none } in
      { result with Simulator.ctx }
  in
  (sim, finish)

let checked_run ?params ?seed ?telemetry ?audit_every ?break_at ?restore ?record ?replay
    ~policy ~max_steps image =
  let _, finish =
    create ?params ?seed ?telemetry ?audit_every ?break_at ?restore ?record ?replay ~policy
      ~max_steps image
  in
  finish ()
