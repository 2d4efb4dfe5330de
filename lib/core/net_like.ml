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
    exit_targets : Id_set.t;
        (** Block ids of targets first profiled via a cache exit: they get
            the exit threshold. *)
  }

  let name = C.name

  let create (ctx : Context.t) =
    {
      ctx;
      recording = Idle;
      exit_targets = Id_set.create (Program.n_blocks ctx.Context.program);
    }

  let id t a = Program.block_id t.ctx.Context.program a

  (* Checkpoint support.  [exit_targets] travels as start addresses in
     ascending order; it is a pure membership set, so content equality is
     enough on restore. *)
  let save t emit =
    (match t.recording with
    | Idle -> emit 0
    | Pending a ->
      emit 1;
      emit a
    | Active former ->
      emit 2;
      Net_former.save former emit);
    emit (Id_set.cardinal t.exit_targets);
    Id_set.iter
      (fun i -> emit (Program.block_of_id t.ctx.Context.program i).Block.start)
      t.exit_targets

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
      let i = id t (read ()) in
      if i < 0 then failwith (name ^ ".load: exit target is not a block start");
      Id_set.add t.exit_targets i
    done;
    t

  let threshold_for t tgt =
    if Id_set.mem t.exit_targets (id t tgt) then C.exit_threshold t.ctx.Context.params
    else C.backward_threshold t.ctx.Context.params

  (* Count one eligible execution of [tgt]; arm a recording on threshold. *)
  let bump t tgt =
    let c = Counters.incr t.ctx.Context.counters tgt in
    if c >= threshold_for t tgt && t.recording = Idle then begin
      Counters.release t.ctx.Context.counters tgt;
      Id_set.remove t.exit_targets (id t tgt);
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
      let former = Net_former.start t.ctx.Context.program ~entry in
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
      let action = advance_recording t block taken next in
      if Net_former.is_start_point t.ctx ~block ~taken ~next ~installing:action then
        bump t next;
      action
    | Policy.Cache_exited { tgt; _ } ->
      let i = id t tgt in
      if (not (Id_set.mem t.exit_targets i)) && Counters.peek t.ctx.Context.counters tgt = 0
      then Id_set.add t.exit_targets i;
      bump t tgt;
      Policy.No_action
    | Policy.Region_invalidated { entry } ->
      (* Profiling restarts from scratch for the retired entry. *)
      Id_set.remove t.exit_targets (id t entry);
      Counters.release t.ctx.Context.counters entry;
      (match t.recording with
      | Pending e when Addr.equal e entry -> t.recording <- Idle
      | Idle | Pending _ | Active _ -> ());
      Policy.No_action
end
