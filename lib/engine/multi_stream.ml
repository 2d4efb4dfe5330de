(* The domain-sharded multi-stream scheduler.

   N tenants — independent simulations with their own policy, stats,
   telemetry sink, fault schedule and PRNG stream — advance in bounded
   batches over a work-stealing Domain_pool.iter.  All per-run state is
   domain-local while a batch runs (a handle is owned by whichever domain
   claimed it); domains meet only at the batch barrier, where the main
   domain walks the tenants in submission order to rebalance cache quotas.
   That discipline makes the schedule deterministic: every cross-tenant
   decision is a pure function of the barrier states, which do not depend
   on how the batches were interleaved across domains, so the outcome is
   bit-identical whatever [n_domains] — and, with no budget, bit-identical
   to running each tenant alone. *)

type outcome = {
  results : (string * Simulator.result) list;
      (** One per tenant, in submission order. *)
  rounds : int;
  quota_rejects : int;
  quota_evictions : int;
}

(* The max-min-fair quota computation, as a pure function of the barrier
   snapshot so it can be property-tested directly.

   [avail] splits into base shares of [avail / n] each, the division
   remainder going one byte apiece to the earliest tenants — every byte of
   the budget is granted; the old [avail / n] split silently dropped up to
   [n - 1] bytes per barrier.  Shares the under-base tenants are not using
   are pooled as slack and granted as extra headroom to the over-base
   ("hungry") ones, the slack division remainder again one byte apiece to
   the earliest hungry.  Conservation is exact by construction:

       sum quotas = avail + granted slack

   where granted slack is the pooled slack if anyone is hungry to take it,
   and 0 otherwise (unclaimed headroom stays with its under-base owners —
   their quota is the full base share either way). *)
let fair_split ~avail used =
  let n = Array.length used in
  if n = 0 then invalid_arg "Multi_stream.fair_split: no tenants";
  if avail < 0 then invalid_arg "Multi_stream.fair_split: negative budget";
  let fair = avail / n and rem = avail mod n in
  let base = Array.init n (fun i -> fair + if i < rem then 1 else 0) in
  let slack = ref 0 and n_hungry = ref 0 in
  Array.iteri
    (fun i u -> if u > base.(i) then incr n_hungry else slack := !slack + (base.(i) - u))
    used;
  let granted = if !n_hungry = 0 then 0 else !slack in
  let extra = if !n_hungry = 0 then 0 else !slack / !n_hungry in
  let extra_rem = if !n_hungry = 0 then 0 else !slack mod !n_hungry in
  let hungry_seen = ref 0 in
  let quotas =
    Array.mapi
      (fun i u ->
        if u > base.(i) then begin
          let bonus = if !hungry_seen < extra_rem then 1 else 0 in
          incr hungry_seen;
          base.(i) + extra + bonus
        end
        else base.(i))
      used
  in
  (quotas, granted)

(* Recompute per-tenant quotas from the barrier snapshot, in tenant order.

   Exhausted tenants keep their final cache untouched (their metrics are
   already decided); their footprint stays charged against the budget.  The
   rest is split by {!fair_split}.  Tightening below a tenant's footprint
   evicts through the quota layer — the cross-tenant pressure path.
   Aggregate footprint is therefore at most the budget at every barrier;
   between barriers it can transiently exceed it by at most the granted
   slack, reclaimed at the next barrier. *)
let rebalance ~budget sims =
  let active, frozen_bytes =
    Array.fold_left
      (fun (active, frozen) sim ->
        if Simulator.exhausted sim then (active, frozen + Simulator.cache_bytes_used sim)
        else (sim :: active, frozen))
      ([], 0) sims
  in
  let active = Array.of_list (List.rev active) in
  let n_active = Array.length active in
  if n_active > 0 then begin
    let avail = max 0 (budget - frozen_bytes) in
    let used = Array.map Simulator.cache_bytes_used active in
    let quotas, granted_slack = fair_split ~avail used in
    (* Barrier conservation: every available byte is granted exactly once,
       plus the slack explicitly granted on top.  A violation here is a
       scheduler bug, not tenant behaviour — fail loudly. *)
    assert (Array.fold_left ( + ) 0 quotas = avail + granted_slack);
    Array.iteri (fun i sim -> Simulator.set_cache_quota sim (Some quotas.(i))) active
  end

(* The incremental scheduler the daemon drives: the same batch-barrier
   rounds [run] performs, but with tenants admitted and retired while the
   engine runs, typed admission rejects, and per-tenant step bounds so an
   ingest-fed tenant never advances past its buffered events (which would
   falsely read as a program halt). *)
module Engine = struct
  type admission_reject =
    | Tenants_saturated of { limit : int }
    | Budget_saturated of { budget : int; tenants : int; floor : int }
    | Duplicate_tenant of string

  let reject_to_string = function
    | Tenants_saturated { limit } ->
      Printf.sprintf "tenant slots saturated (limit %d)" limit
    | Budget_saturated { budget; tenants; floor } ->
      Printf.sprintf
        "cache budget saturated (%d bytes over %d tenants leaves fair shares under the \
         %d-byte floor)"
        budget (tenants + 1) floor
    | Duplicate_tenant name -> Printf.sprintf "tenant %S already admitted" name

  type t = {
    e_n_domains : int option;
    e_batch_steps : int;
    e_budget : int option;
    e_quota_floor : int;
    e_max_tenants : int option;
    e_on_barrier : (round:int -> (string * Simulator.t) array -> unit) option;
    mutable e_members : (string * Simulator.t) list;  (* submission order *)
    mutable e_rounds : int;
  }

  let create ?n_domains ?(batch_steps = 4096) ?budget_bytes ?(quota_floor = 0) ?max_tenants
      ?on_barrier () =
    if batch_steps <= 0 then
      invalid_arg "Multi_stream.Engine.create: batch_steps must be positive";
    (match budget_bytes with
    | Some b when b < 0 -> invalid_arg "Multi_stream.Engine.create: negative budget"
    | Some _ | None -> ());
    if quota_floor < 0 then invalid_arg "Multi_stream.Engine.create: negative quota floor";
    {
      e_n_domains = n_domains;
      e_batch_steps = batch_steps;
      e_budget = budget_bytes;
      e_quota_floor = quota_floor;
      e_max_tenants = max_tenants;
      e_on_barrier = on_barrier;
      e_members = [];
      e_rounds = 0;
    }

  let member_sims t = Array.of_list (List.map snd t.e_members)

  let rebalance_now t =
    match t.e_budget with
    | Some budget when t.e_members <> [] -> rebalance ~budget (member_sims t)
    | Some _ | None -> ()

  (* Membership changes rebalance immediately: a new tenant gets its fair
     share before its first batch, and a departing tenant's footprint goes
     back to the pool at the moment it leaves, not a round later. *)
  let admit t ~name sim =
    let n = List.length t.e_members in
    if List.mem_assoc name t.e_members then Error (Duplicate_tenant name)
    else
      match t.e_max_tenants with
      | Some limit when n >= limit -> Error (Tenants_saturated { limit })
      | Some _ | None -> (
        match t.e_budget with
        | Some budget when t.e_quota_floor > 0 && budget / (n + 1) < t.e_quota_floor ->
          Error (Budget_saturated { budget; tenants = n; floor = t.e_quota_floor })
        | Some _ | None ->
          t.e_members <- t.e_members @ [ (name, sim) ];
          rebalance_now t;
          Ok ())

  let retire t ~name =
    match List.assoc_opt name t.e_members with
    | None -> None
    | Some sim ->
      t.e_members <- List.filter (fun (n, _) -> not (String.equal n name)) t.e_members;
      rebalance_now t;
      Some sim

  let tenants t = t.e_members
  let rounds t = t.e_rounds

  let round t ~limit =
    let participants =
      List.filter
        (fun (name, sim) ->
          (not (Simulator.exhausted sim)) && limit ~name ~sim > Simulator.steps sim)
        t.e_members
    in
    if participants = [] then false
    else begin
      t.e_rounds <- t.e_rounds + 1;
      let bounds =
        Array.of_list
          (List.map (fun (name, sim) -> (sim, limit ~name ~sim)) participants)
      in
      Domain_pool.iter ?n_domains:t.e_n_domains
        (fun (sim, lim) ->
          Simulator.advance sim ~upto:(min lim (Simulator.steps sim + t.e_batch_steps)))
        bounds;
      rebalance_now t;
      (* Barrier observation (metrics sampling) runs last, on the main
         domain, over this round's participants in submission order —
         after rebalancing, so quota evictions land in the window that
         caused them.  Pure observation: what the hook sees is a pure
         function of the barrier states, hence identical whatever
         [n_domains]. *)
      (match t.e_on_barrier with
      | None -> ()
      | Some fn -> fn ~round:t.e_rounds (Array.of_list participants));
      true
    end
end

let unbounded ~name:_ ~sim:_ = max_int

let run ?n_domains ?(batch_steps = 4096) ?budget_bytes tenants =
  let eng = Engine.create ?n_domains ~batch_steps ?budget_bytes () in
  (* A batch engine has no slot limit or quota floor, so the only possible
     reject is a duplicate name — which would alias two tenants in
     [results] and in any recorder keyed by name. *)
  List.iter
    (fun (name, sim) ->
      match Engine.admit eng ~name sim with
      | Ok () -> ()
      | Error r -> invalid_arg ("Multi_stream.run: " ^ Engine.reject_to_string r))
    tenants;
  while Engine.round eng ~limit:unbounded do
    ()
  done;
  (* Finalization (edge-profile flushes, fault logs) happens on the main
     domain, in tenant order. *)
  let results = List.map (fun (name, sim) -> (name, Simulator.finish sim)) tenants in
  let total count =
    List.fold_left
      (fun acc (_, (r : Simulator.result)) -> acc + count r.Simulator.ctx.Context.cache)
      0 results
  in
  {
    results;
    rounds = Engine.rounds eng;
    quota_rejects = total Code_cache.quota_rejects;
    quota_evictions = total Code_cache.quota_evictions;
  }
