module Spec = Regionsel_workload.Spec
module Image = Regionsel_workload.Image
module Simulator = Regionsel_engine.Simulator
module Branch_stream = Regionsel_engine.Branch_stream
module Interp = Regionsel_engine.Interp
module Policy = Regionsel_engine.Policy
module Engine = Regionsel_engine.Multi_stream.Engine
module Sim_stats = Regionsel_engine.Stats
module Policies = Regionsel_core.Policies
module Run_metrics = Regionsel_metrics.Run_metrics
module Event_log = Regionsel_persist.Event_log
module Persist = Regionsel_persist.Persist
module Proto = Regionsel_serve.Proto
module Metrics = Regionsel_obs.Metrics

type input = {
  spec : Spec.t;
  seed : int64;
  events : Branch_stream.events;
  trunc : int;
}

type result = { metrics : (string * float) list; serving_ns_per_event : float }

(* Stack 3's policy: profiles nothing, installs nothing, so the run pays
   only for the simulator's own loop. *)
module Never_install : Policy.S = struct
  type t = unit

  let name = "never-install"
  let create _ = ()
  let handle () _ = Policy.No_action
  let save () _ = ()
  let load _ _ = ()
end

let time f =
  let t0 = Trace.now_ns () in
  let x = f () in
  (Trace.now_ns () - t0, x)

let drain ?into events =
  let stream = Branch_stream.of_events events in
  let step = Interp.make_step () in
  match into with
  | None -> while Branch_stream.next_into stream step do () done
  | Some r -> while Branch_stream.next_into stream step do Branch_stream.append r step done

let interpret image ~seed n =
  let interp = Interp.create image ~seed in
  let step = Interp.make_step () in
  let i = ref 0 in
  while !i < n && Interp.step_into interp step do incr i done

let engine ?on_barrier inp image =
  let n = Branch_stream.length inp.events in
  let e = Engine.create ~n_domains:1 ?on_barrier () in
  let sim =
    Simulator.create ~seed:inp.seed ~replay:inp.events ~policy:Policies.net ~max_steps:n image
  in
  (match Engine.admit e ~name:"stack" sim with
  | Ok () -> ()
  | Error r -> failwith (Engine.reject_to_string r));
  while Engine.round e ~limit:(fun ~name:_ ~sim:_ -> n) do () done;
  ignore (Engine.retire e ~name:"stack");
  Simulator.finish sim

let barrier_hook () =
  let r = Metrics.create ~keep:256 ~labels:[ ("tenant", "stack") ] () in
  fun ~round:_ participants ->
    Array.iter
      (fun (_, sim) ->
        Simulator.sample sim (fun ~step ~stats ~ctx -> Metrics.sample r ~step ~stats ~ctx))
      participants

let frames program events =
  let n = Branch_stream.length events in
  let rec go pos acc =
    if pos >= n then List.rev acc
    else
      let len = min 4096 (n - pos) in
      go (pos + len) (Event_log.encode_batch ~program events ~pos ~len :: acc)
  in
  go 0 []

let wire bodies =
  let b = Buffer.create (1 lsl 16) in
  List.iter (fun body -> Buffer.add_bytes b (Proto.encode (Proto.Events body))) bodies;
  Buffer.to_bytes b

(* The server reads into a 64 KiB scratch buffer and drains every complete
   frame after each read; do the same. *)
let dechunk wire =
  let d = Proto.Dechunker.create () in
  let bodies = ref [] in
  let rec drain () =
    match Proto.Dechunker.next d with
    | Some (Proto.Events body) ->
      bodies := body :: !bodies;
      drain ()
    | Some _ -> failwith "dechunker produced a non-Events frame"
    | None -> ()
  in
  let total = Bytes.length wire in
  let pos = ref 0 in
  while !pos < total do
    let len = min 65536 (total - !pos) in
    Proto.Dechunker.feed d wire ~pos:!pos ~len;
    drain ();
    pos := !pos + len
  done;
  List.rev !bodies

(* One repetition: nanoseconds per stack, summed over the inputs, the
   counts the derived figures need, and the host speed (a calibration
   sample after each input). *)
let repetition inputs =
  let calibration = ref [] in
  let ns = Hashtbl.create 32 in
  let counts = Hashtbl.create 8 in
  let bump tbl key v = Hashtbl.replace tbl key (v + Option.value ~default:0 (Hashtbl.find_opt tbl key)) in
  let timed key f =
    let dt, x = time f in
    bump ns key dt;
    x
  in
  List.iter
    (fun inp ->
      let image = Spec.image inp.spec in
      let program = image.Image.program in
      let n = Branch_stream.length inp.events in
      let replay policy () =
        Simulator.run ~seed:inp.seed ~replay:inp.events ~policy ~max_steps:n image
      in
      timed "drain" (fun () -> drain inp.events);
      timed "record" (fun () -> drain ~into:(Branch_stream.recorder ()) inp.events);
      timed "interp" (fun () -> interpret image ~seed:inp.seed n);
      ignore (timed "null" (replay (module Never_install : Policy.S)));
      let net_steps = ref 0 in
      List.iter
        (fun (name, policy) ->
          let r = timed ("policy." ^ name) (replay policy) in
          let stats = r.Simulator.stats in
          bump counts "cached_insts" stats.Sim_stats.cached_insts;
          bump counts "total_insts" (Sim_stats.total_insts stats);
          if name = "net" then net_steps := stats.Sim_stats.steps;
          ignore (timed "run_metrics" (fun () -> Run_metrics.to_json (Run_metrics.of_result r)));
          bump counts "results" 1)
        Policies.all;
      let bare = timed "engine" (fun () -> engine inp image) in
      let hooked = timed "engine_hook" (fun () -> engine ~on_barrier:(barrier_hook ()) inp image) in
      if bare.Simulator.stats.Sim_stats.steps <> !net_steps
         || hooked.Simulator.stats.Sim_stats.steps <> !net_steps
      then failwith "one-tenant engine ran a different number of steps than Simulator.run";
      let file = timed "encode" (fun () -> Event_log.encode ~program ~seed:inp.seed inp.events) in
      bump counts "file_bytes" (Bytes.length file);
      let decoded = timed "decode" (fun () -> Event_log.decode file ~program ~seed:inp.seed) in
      if not (Branch_stream.equal decoded inp.events) then failwith "file codec round trip differs";
      let bodies = timed "batch_encode" (fun () -> frames program inp.events) in
      let framed = wire bodies in
      let received = timed "dechunk" (fun () -> dechunk framed) in
      let into = Branch_stream.recorder () in
      timed "batch_decode" (fun () ->
          List.iter (fun b -> ignore (Event_log.decode_batch b ~program ~into)) received);
      if not (Branch_stream.equal into inp.events) then failwith "wire batches round trip differs";
      let sim =
        Simulator.create ~seed:inp.seed ~replay:inp.events ~policy:Policies.net ~max_steps:n image
      in
      Simulator.advance sim ~upto:inp.trunc;
      let snap =
        timed "save" (fun () -> Persist.encode ~seed:inp.seed ~policy:"net" (Simulator.internals sim))
      in
      bump counts "snapshot_bytes" (Bytes.length snap);
      let restore internals =
        let report =
          timed "restore" (fun () -> Persist.decode_into snap ~seed:inp.seed ~policy:"net" internals)
        in
        if not (Persist.clean report) then failwith "snapshot restored degraded"
      in
      ignore
        (Simulator.create ~seed:inp.seed ~restore ~replay:inp.events ~policy:Policies.net
           ~max_steps:n image);
      calibration := Calibrate.sample ~wide:false :: !calibration)
    inputs;
  (ns, counts, Calibrate.speed !calibration)

let median xs =
  match Stats.summarize (Array.of_list xs) with Some s -> s.Stats.median | None -> 0.0

let run ~reps inputs =
  let n_events = List.fold_left (fun acc inp -> acc + Branch_stream.length inp.events) 0 inputs in
  let n_inputs = List.length inputs in
  let reps = List.init (max 1 reps) (fun _ -> repetition inputs) in
  (* Times are scaled to the reference machine by the host speed measured
     during their own repetition. *)
  let ns (tbl, _, speed) key =
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl key)) /. speed
  in
  let count (_, tbl, _) key = float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl key)) in
  let per_event rep key = ns rep key /. float_of_int n_events in
  let med f = median (List.map f reps) in
  let policy_metrics =
    List.map
      (fun (name, _) ->
        ( Printf.sprintf "policy.%s.ns_per_event" name,
          med (fun r -> per_event r ("policy." ^ name) -. per_event r "null") ))
      Policies.all
  in
  let mean_policy r =
    List.fold_left (fun acc (name, _) -> acc +. per_event r ("policy." ^ name)) 0.0 Policies.all
    /. float_of_int (List.length Policies.all)
  in
  let ms_overhead r = per_event r "engine" -. per_event r "policy.net" in
  let barrier r = per_event r "engine_hook" -. per_event r "engine" in
  let wire_in r = per_event r "batch_decode" +. per_event r "dechunk" in
  let first = List.hd reps in
  let metrics =
    [
      ("branch_stream.replay_ns_per_event", med (fun r -> per_event r "drain"));
      ("branch_stream.record_ns_per_event", med (fun r -> per_event r "record" -. per_event r "drain"));
      ("interp.ns_per_event", med (fun r -> per_event r "interp"));
      ("simulator.null_policy_ns_per_event", med (fun r -> per_event r "null" -. per_event r "drain"));
      ( "simulator.cached_share",
        (Stats.ratio ~num:(count first "cached_insts") ~base:(count first "total_insts")).Stats.value );
    ]
    @ policy_metrics
    @ [
        ( "run_metrics.ms_per_result",
          med (fun r -> ns r "run_metrics" /. count r "results" /. 1e6) );
        ("event_log.encode_ns_per_event", med (fun r -> per_event r "encode"));
        ("event_log.decode_ns_per_event", med (fun r -> per_event r "decode"));
        ("event_log.bits_per_event", 8.0 *. count first "file_bytes" /. float_of_int n_events);
        ("event_log.batch_encode_ns_per_event", med (fun r -> per_event r "batch_encode"));
        ("event_log.batch_decode_ns_per_event", med (fun r -> per_event r "batch_decode"));
        ("proto.dechunk_ns_per_event", med (fun r -> per_event r "dechunk"));
        ("multi_stream.overhead_ns_per_event", med ms_overhead);
        ("obs.barrier_sample_ns_per_event", med barrier);
        ("persist.save_ms", med (fun r -> ns r "save" /. float_of_int n_inputs /. 1e6));
        ("persist.restore_ms", med (fun r -> ns r "restore" /. float_of_int n_inputs /. 1e6));
        ("persist.snapshot_kb", count first "snapshot_bytes" /. float_of_int n_inputs /. 1024.0);
      ]
  in
  {
    metrics;
    serving_ns_per_event = med (fun r -> mean_policy r +. ms_overhead r +. barrier r +. wire_in r);
  }
