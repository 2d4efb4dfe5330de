(* The multi-stream scheduler's two contracts: without a budget every
   tenant's multiplexed result is bit-identical to its solo run (whatever
   the domain count or batch size), and with a shared budget the outcome
   is a pure function of the barrier states — identical across domain
   counts, with every tenant's footprint inside its quota. *)

module Spec = Regionsel_workload.Spec
module Suite = Regionsel_workload.Suite
module Simulator = Regionsel_engine.Simulator
module Multi_stream = Regionsel_engine.Multi_stream
module Code_cache = Regionsel_engine.Code_cache
module Context = Regionsel_engine.Context
module Params = Regionsel_engine.Params
module Stats = Regionsel_engine.Stats
module Splitmix = Regionsel_prng.Splitmix
module Run_metrics = Regionsel_metrics.Run_metrics
module Policies = Regionsel_core.Policies
module Check = Regionsel_check.Check
module Image = Regionsel_workload.Image
open Fixtures

let budget_steps (spec : Spec.t) = min spec.Spec.default_steps 20_000

(* A mixed fleet: different workloads, policies, seeds and fault
   schedules per tenant. *)
let fleet_specs =
  [
    ("gzip", "net", 1L, None);
    ("twolf", "lei", 2L, Some "mixed");
    ("mcf", "combined-net", 3L, None);
    ("vpr", "mojo", 4L, Some "smc");
  ]

let params_of fault =
  match fault with
  | None -> Params.default
  | Some name -> { Params.default with Params.faults = Params.fault_profile name }

let tenants () =
  List.map
    (fun (bench, pname, seed, fault) ->
      let spec = Option.get (Suite.find bench) in
      ( bench ^ "/" ^ pname,
        Simulator.create ~params:(params_of fault) ~seed
          ~policy:(Option.get (Policies.find pname))
          ~max_steps:(budget_steps spec) (Spec.image spec) ))
    fleet_specs

let solo_json (bench, pname, seed, fault) =
  let spec = Option.get (Suite.find bench) in
  Run_metrics.to_json
    (Run_metrics.of_result
       (Simulator.run ~params:(params_of fault) ~seed
          ~policy:(Option.get (Policies.find pname))
          ~max_steps:(budget_steps spec) (Spec.image spec)))

let outcome_jsons (o : Multi_stream.outcome) =
  List.map (fun (_, r) -> Run_metrics.to_json (Run_metrics.of_result r)) o.Multi_stream.results

let merged_equals_sequential () =
  let solo = List.map solo_json fleet_specs in
  let o = Multi_stream.run ~n_domains:2 ~batch_steps:1024 (tenants ()) in
  check_int "one result per tenant" (List.length fleet_specs)
    (List.length o.Multi_stream.results);
  List.iter2
    (fun (name, _) (want, got) ->
      Alcotest.(check string) (name ^ " bit-identical to its solo run") want got)
    o.Multi_stream.results
    (List.combine solo (outcome_jsons o))

let domain_count_invariant () =
  let a = Multi_stream.run ~n_domains:1 ~batch_steps:1024 (tenants ()) in
  let b = Multi_stream.run ~n_domains:4 ~batch_steps:1024 (tenants ()) in
  Alcotest.(check (list string)) "1 vs 4 domains" (outcome_jsons a) (outcome_jsons b);
  check_int "same rounds" a.Multi_stream.rounds b.Multi_stream.rounds

let batch_size_invariant_without_budget () =
  let a = Multi_stream.run ~n_domains:2 ~batch_steps:64 (tenants ()) in
  let b = Multi_stream.run ~n_domains:2 ~batch_steps:4096 (tenants ()) in
  Alcotest.(check (list string)) "batch 64 vs 4096" (outcome_jsons a) (outcome_jsons b)

(* Shared budget: quota pressure must actually fire, the outcome must not
   depend on the domain count, and every final cache must satisfy the
   quota bound (checked both directly and through the audit rule). *)
let shared_budget () =
  let unconstrained = Multi_stream.run ~n_domains:1 ~batch_steps:512 (tenants ()) in
  let total =
    List.fold_left
      (fun acc (_, (r : Simulator.result)) ->
        acc + Code_cache.bytes_used r.Simulator.ctx.Context.cache)
      0 unconstrained.Multi_stream.results
  in
  check_true "fleet uses cache bytes at all" (total > 0);
  let budget = max 1024 (total / 3) in
  let a = Multi_stream.run ~n_domains:1 ~batch_steps:512 ~budget_bytes:budget (tenants ()) in
  let b = Multi_stream.run ~n_domains:4 ~batch_steps:512 ~budget_bytes:budget (tenants ()) in
  Alcotest.(check (list string)) "budgeted, 1 vs 4 domains" (outcome_jsons a) (outcome_jsons b);
  check_int "same quota rejects" a.Multi_stream.quota_rejects b.Multi_stream.quota_rejects;
  check_int "same quota evictions" a.Multi_stream.quota_evictions
    b.Multi_stream.quota_evictions;
  check_true "budget exerted pressure"
    (a.Multi_stream.quota_evictions > 0 || a.Multi_stream.quota_rejects > 0
    || List.exists
         (fun (_, (r : Simulator.result)) ->
           Code_cache.evictions r.Simulator.ctx.Context.cache > 0)
         a.Multi_stream.results);
  List.iter
    (fun (name, (r : Simulator.result)) ->
      let cache = r.Simulator.ctx.Context.cache in
      (match Code_cache.quota cache with
      | Some q ->
        check_true
          (Printf.sprintf "%s: footprint %d fits quota %d" name
             (Code_cache.bytes_used cache) q)
          (Code_cache.bytes_used cache <= q)
      | None -> Alcotest.failf "%s: no quota set under a budget" name);
      (* The audit rule sees the same invariant. *)
      Check.audit_cache ~program:r.Simulator.image.Image.program cache
        ~step:(Code_cache.now cache))
    a.Multi_stream.results

(* Aggregate footprint at the end respects the budget (the barrier
   invariant; the run has just crossed its last barrier). *)
let budget_bounds_aggregate () =
  let unconstrained = Multi_stream.run ~n_domains:1 ~batch_steps:512 (tenants ()) in
  let total =
    List.fold_left
      (fun acc (_, (r : Simulator.result)) ->
        acc + Code_cache.bytes_used r.Simulator.ctx.Context.cache)
      0 unconstrained.Multi_stream.results
  in
  let budget = max 1024 (total / 3) in
  let o = Multi_stream.run ~n_domains:2 ~batch_steps:512 ~budget_bytes:budget (tenants ()) in
  let used =
    List.fold_left
      (fun acc (_, (r : Simulator.result)) ->
        acc + Code_cache.bytes_used r.Simulator.ctx.Context.cache)
      0 o.Multi_stream.results
  in
  check_true
    (Printf.sprintf "aggregate %d within budget %d" used budget)
    (used <= budget)

let edge_cases () =
  let o = Multi_stream.run [] in
  check_int "empty fleet: no results" 0 (List.length o.Multi_stream.results);
  check_int "empty fleet: no rounds" 0 o.Multi_stream.rounds;
  check_true "batch_steps = 0 rejected"
    (try
       ignore (Multi_stream.run ~batch_steps:0 (tenants ()));
       false
     with Invalid_argument _ -> true);
  check_true "negative budget rejected"
    (try
       ignore (Multi_stream.run ~budget_bytes:(-1) (tenants ()));
       false
     with Invalid_argument _ -> true)

(* Results and fleet recorders are keyed by tenant name, so two tenants
   sharing one would alias: the batch run refuses them up front. *)
let duplicate_names_rejected () =
  let sim () =
    Simulator.create ~seed:1L ~policy:(Option.get (Policies.find "net")) ~max_steps:1_000
      (Spec.image (Option.get (Suite.find "gzip")))
  in
  match Multi_stream.run [ ("t", sim ()); ("u", sim ()); ("t", sim ()) ] with
  | (_ : Multi_stream.outcome) -> Alcotest.fail "a duplicate tenant name was accepted"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "the reject names the tenant"
      "Multi_stream.run: tenant \"t\" already admitted" msg

(* The resumable handle under the scheduler's own API: advance is
   monotone and finish is idempotent. *)
let handle_semantics () =
  let spec = Option.get (Suite.find "gzip") in
  let image = Spec.image spec in
  let policy = Option.get (Policies.find "net") in
  let t = Simulator.create ~seed:1L ~policy ~max_steps:5_000 image in
  check_int "fresh handle at step 0" 0 (Simulator.steps t);
  Simulator.advance t ~upto:1_000;
  check_int "advanced to 1000" 1_000 (Simulator.steps t);
  Simulator.advance t ~upto:500;
  check_int "advance is monotone" 1_000 (Simulator.steps t);
  Simulator.advance t ~upto:100_000;
  check_int "advance clamps to max_steps" 5_000 (Simulator.steps t);
  check_true "exhausted" (Simulator.exhausted t);
  let a = Simulator.finish t in
  let b = Simulator.finish t in
  check_true "finish is idempotent" (a == b);
  (* Batched stepping is bit-identical to one-shot running. *)
  Alcotest.(check string) "batched == one-shot"
    (Run_metrics.to_json
       (Run_metrics.of_result (Simulator.run ~seed:1L ~policy ~max_steps:5_000 image)))
    (Run_metrics.to_json (Run_metrics.of_result a));
  (* Every advance limit is a stop point of the cached-mode loop, which
     stores its counters back there and picks them up again on the next
     advance.  Chunked runs — one step at a time, three, 64, and a seeded
     random mix — must equal the one-shot run for every policy, clean and
     under mixed faults (whose fault steps and watchdog windows are stop
     points too), on a cell where regions form and link. *)
  let image = Spec.image (Option.get (Suite.find "perlbmk")) in
  let max_steps = 30_000 in
  let chunkings =
    [
      ("chunks of 1", fun () -> 1);
      ("chunks of 3", fun () -> 3);
      ("chunks of 64", fun () -> 64);
      (let prng = Splitmix.create ~seed:0x5EEDL in
       ("seeded random chunks", fun () -> 1 + Splitmix.int prng 200));
    ]
  in
  List.iter
    (fun (fault, params) ->
      List.iter
        (fun (pname, policy) ->
          let json r = Run_metrics.to_json (Run_metrics.of_result r) in
          let one_shot = Simulator.run ~params ~seed:1L ~policy ~max_steps image in
          check_true
            (Printf.sprintf "%s/%s: cached code links" fault pname)
            (one_shot.Simulator.stats.Stats.link_hits > 0);
          List.iter
            (fun (chunking, next_chunk) ->
              let t = Simulator.create ~params ~seed:1L ~policy ~max_steps image in
              while not (Simulator.exhausted t) do
                Simulator.advance t ~upto:(Simulator.steps t + next_chunk ())
              done;
              Alcotest.(check string)
                (Printf.sprintf "%s/%s: %s == one-shot" fault pname chunking)
                (json one_shot)
                (json (Simulator.finish t)))
            chunkings)
        Policies.all)
    [ ("clean", Params.default); ("mixed", params_of (Some "mixed")) ]

let suite =
  [
    case "merged fleet == sequential solo runs (bit-identical)" merged_equals_sequential;
    case "outcome independent of domain count" domain_count_invariant;
    case "outcome independent of batch size (no budget)" batch_size_invariant_without_budget;
    case "shared budget: pressure, determinism, quota bound" shared_budget;
    case "shared budget bounds the aggregate footprint" budget_bounds_aggregate;
    case "edge cases" edge_cases;
    case "duplicate tenant names rejected" duplicate_names_rejected;
    case "resumable handle semantics" handle_semantics;
  ]
