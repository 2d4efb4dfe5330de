open Regionsel_isa
module Policy = Regionsel_engine.Policy
module Context = Regionsel_engine.Context
module Region = Regionsel_engine.Region
module Counters = Regionsel_engine.Counters
module Params = Regionsel_engine.Params

module type CONFIG = sig
  val name : string
  val backward_threshold : Params.t -> int
  val exit_threshold : Params.t -> int
end

module Make (C : CONFIG) : Policy.S = struct
  type recording = Idle | Pending of Addr.t | Active of Net_former.t

  type t = {
    ctx : Context.t;
    mutable recording : recording;
    exit_targets : unit Addr.Table.t;
        (** Targets first profiled via a cache exit get the exit threshold. *)
  }

  let name = C.name
  let create ctx = { ctx; recording = Idle; exit_targets = Addr.Table.create 256 }

  (* Checkpoint support.  [exit_targets] is a pure membership set (never
     iterated), so content equality is enough on restore. *)
  let save t emit =
    (match t.recording with
    | Idle -> emit 0
    | Pending a ->
      emit 1;
      emit a
    | Active former ->
      emit 2;
      Net_former.save former emit);
    emit (Addr.Table.length t.exit_targets);
    Addr.Table.iter_sorted (fun a () -> emit a) t.exit_targets

  let load ctx read =
    let t = create ctx in
    (match read () with
    | 0 -> ()
    | 1 -> t.recording <- Pending (read ())
    | 2 -> t.recording <- Active (Net_former.load ~program:ctx.Context.program read)
    | _ -> failwith (name ^ ".load: bad recording tag"));
    let n = read () in
    if n < 0 then failwith (name ^ ".load: negative exit-target count");
    for _ = 1 to n do
      Addr.Table.replace t.exit_targets (read ()) ()
    done;
    t

  let threshold_for t tgt =
    if Addr.Table.mem t.exit_targets tgt then C.exit_threshold t.ctx.Context.params
    else C.backward_threshold t.ctx.Context.params

  (* Count one eligible execution of [tgt]; arm a recording on threshold. *)
  let bump t tgt =
    let c = Counters.incr t.ctx.Context.counters tgt in
    if c >= threshold_for t tgt && t.recording = Idle then begin
      Counters.release t.ctx.Context.counters tgt;
      Addr.Table.remove t.exit_targets tgt;
      t.recording <- Pending tgt
    end

  let feed t former block taken next =
    match Net_former.feed former ~ctx:t.ctx ~block ~taken ~next with
    | Net_former.Continue -> Policy.No_action
    | Net_former.Done path ->
      t.recording <- Idle;
      Policy.Install [ Region.spec_of_path ~kind:Region.Trace path ]

  let advance_recording t block taken next =
    match t.recording with
    | Idle -> Policy.No_action
    | Pending entry when Addr.equal block.Block.start entry ->
      let former = Net_former.start ~entry in
      t.recording <- Active former;
      feed t former block taken next
    | Pending _ ->
      (* Control did not reach the armed entry: abandon the recording. *)
      t.recording <- Idle;
      Policy.No_action
    | Active former -> feed t former block taken next

  let handle t = function
    | Policy.Interp_block ib ->
      let block = ib.Policy.block and taken = ib.Policy.taken and next = ib.Policy.next in
      (* The option is only materialized while a recording is in flight;
         the steady (Idle) state stays allocation-free. *)
      let action =
        match t.recording with
        | Idle -> Policy.No_action
        | Pending _ | Active _ ->
          advance_recording t block taken (if Addr.is_none next then None else Some next)
      in
      if Net_former.is_start_point t.ctx ~block ~taken ~next ~installing:action then
        bump t next;
      action
    | Policy.Cache_exited { tgt; _ } ->
      if not (Addr.Table.mem t.exit_targets tgt) then
        if Counters.peek t.ctx.Context.counters tgt = 0 then
          Addr.Table.replace t.exit_targets tgt ();
      bump t tgt;
      Policy.No_action
    | Policy.Region_invalidated { entry } ->
      (* Profiling restarts from scratch for the retired entry. *)
      Addr.Table.remove t.exit_targets entry;
      Counters.release t.ctx.Context.counters entry;
      (match t.recording with
      | Pending e when Addr.equal e entry -> t.recording <- Idle
      | Idle | Pending _ | Active _ -> ());
      Policy.No_action
end
