open Regionsel_isa
module Policy = Regionsel_engine.Policy
module Context = Regionsel_engine.Context
module Counters = Regionsel_engine.Counters
module Params = Regionsel_engine.Params
module Region = Regionsel_engine.Region

(* The interpreted step every active former is fed, and the observations
   it completed, newest first.  One per instance, with the closure that
   feeds a former from it, so feeding the formers allocates nothing per
   step beyond what a completed observation holds. *)
type feed_step = {
  mutable block : Block.t;
  mutable taken : bool;
  mutable next : Addr.t;
  mutable completed : (Addr.t * Region.path) list;
}

type t = {
  ctx : Context.t;
  store : Observation_store.t;
  combine : Combine.t;
  formers : Net_former.t Addr.Table.t; (* active observations, by entry *)
  mutable pending : Addr.t option; (* entry armed to start recording *)
  step : feed_step;
  feed : Addr.t -> Net_former.t -> unit; (* feeds one former [step] *)
}

let name = "combined-net"

let make (ctx : Context.t) store ~formers ~pending =
  let step =
    { block = Program.block_of_id ctx.Context.program 0; taken = false; next = Addr.none;
      completed = [] }
  in
  let feed entry former =
    match
      Net_former.feed former ~ctx ~block:step.block ~taken:step.taken ~next:step.next
    with
    | Net_former.Continue -> ()
    | Net_former.Done path -> step.completed <- (entry, path) :: step.completed
  in
  { ctx; store; combine = Combine.create ctx store; formers; pending; step; feed }

let create (ctx : Context.t) =
  make ctx
    (Observation_store.create ctx.Context.program ctx.Context.gauges)
    ~formers:(Addr.Table.create 16) ~pending:None

let t_start t = t.ctx.Context.params.Params.combined_net_start
let t_prof t = t.ctx.Context.params.Params.combine_t_prof

(* Checkpoint support.  [formers] is iterated by [advance_observations],
   and that iteration order feeds completion order, store-record order and
   install order — so restore must reproduce the table's physical layout,
   not just its contents: the bucket count is saved, the restored table is
   created at exactly that size (no resize can occur mid-rebuild), and
   bindings are re-added in reverse iteration order so prepend semantics
   recreate the original bucket order. *)

let save t emit =
  (match t.pending with
  | None -> emit 0
  | Some a ->
    emit 1;
    emit a);
  Observation_store.save t.store emit;
  let stats = Addr.Table.stats t.formers in
  emit stats.Hashtbl.num_buckets;
  emit (Addr.Table.length t.formers);
  Addr.Table.iter (fun _entry former -> Net_former.save former emit) t.formers

let load ctx read =
  let pending =
    match read () with
    | 0 -> None
    | 1 -> Some (read ())
    | _ -> failwith "Combined_net.load: bad pending tag"
  in
  let store = Observation_store.create ctx.Context.program ctx.Context.gauges in
  Observation_store.load store read;
  let buckets = read () in
  let n = read () in
  if buckets < 1 || n < 0 then failwith "Combined_net.load: malformed former table";
  let formers = Addr.Table.create buckets in
  let fs = List.init n (fun _ -> Net_former.load ~program:ctx.Context.program read) in
  List.iter (fun f -> Addr.Table.add formers (Net_former.entry f) f) (List.rev fs);
  make ctx store ~formers ~pending

(* One more eligible execution of [tgt]; maybe arm an observation. *)
let bump t tgt =
  let c = Counters.incr t.ctx.Context.counters tgt in
  if
    c > t_start t
    && (not (Addr.Table.mem t.formers tgt))
    && Observation_store.count t.store tgt < t_prof t
  then t.pending <- Some tgt

let resolve_pending t block =
  match t.pending with
  | None -> ()
  | Some entry ->
    t.pending <- None;
    if Addr.equal block.Block.start entry then
      Addr.Table.replace t.formers entry (Net_former.start t.ctx.Context.program ~entry)

(* Feed every active former; turn completed observations into stored
   compact traces and, at [T_prof], into an installable combined region. *)
let advance_observations t block taken next =
  let step = t.step in
  step.block <- block;
  step.taken <- taken;
  step.next <- next;
  Addr.Table.iter t.feed t.formers;
  match step.completed with
  | [] -> Policy.No_action
  | completed ->
    step.completed <- [];
    let specs =
      List.fold_left
        (fun specs (entry, path) ->
          Addr.Table.remove t.formers entry;
          match Combine.observe t.combine ~entry path with
          | Some spec -> spec :: specs
          | None -> specs)
        [] completed
    in
    if specs = [] then Policy.No_action else Policy.Install specs

let handle t = function
  | Policy.Interp_block ib ->
    let block = ib.Policy.block and taken = ib.Policy.taken and next = ib.Policy.next in
    resolve_pending t block;
    let action =
      if Addr.Table.length t.formers = 0 then Policy.No_action
      else advance_observations t block taken next
    in
    if Net_former.is_start_point t.ctx ~block ~taken ~next ~installing:action then
      bump t next;
    action
  | Policy.Cache_exited { tgt; _ } ->
    bump t tgt;
    Policy.No_action
  | Policy.Region_invalidated { entry } ->
    (* Drop every piece of observation state keyed by the retired entry:
       counters, an armed or active former, and stored compact traces. *)
    Addr.Table.remove t.formers entry;
    (match t.pending with
    | Some e when Addr.equal e entry -> t.pending <- None
    | Some _ | None -> ());
    ignore (Observation_store.take t.store entry);
    Counters.release t.ctx.Context.counters entry;
    Policy.No_action
