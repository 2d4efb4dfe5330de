module Builder = Regionsel_workload.Builder
module Patterns = Regionsel_workload.Patterns
module Code_cache = Regionsel_engine.Code_cache
module Context = Regionsel_engine.Context
module Params = Regionsel_engine.Params
module Region = Regionsel_engine.Region
module Simulator = Regionsel_engine.Simulator
module Image = Regionsel_workload.Image
module Policies = Regionsel_core.Policies
module Persist = Regionsel_persist.Persist
module Splitmix = Regionsel_prng.Splitmix
module Multi_stream = Regionsel_engine.Multi_stream
module Metrics = Regionsel_obs.Metrics

type case = {
  seed : int;
  genome : int list;
  policy : string;
  fault : string option;
  max_steps : int;
}

(* Same derivation as the qcheck fuzz suite: each gene adds one function
   of a shape picked by the gene value, always valid by construction. *)
let image_of_genome genome =
  let genome = if genome = [] then [ 1 ] else genome in
  let b = Builder.create () in
  let funcs =
    List.mapi
      (fun i gene ->
        let name = Printf.sprintf "f%d" i in
        let trip = 3 + (gene mod 37) in
        (match gene mod 5 with
        | 0 -> Patterns.leaf b ~name ~size:(2 + (gene mod 7))
        | 1 -> Patterns.plain_loop b ~name ~trip ~body_blocks:(1 + (gene mod 3)) ~body_size:3
        | 2 ->
          Patterns.diamond_loop b ~name ~trip
            ~diamonds:
              [ { Patterns.bias = float_of_int (gene mod 10) /. 10.0; side_size = 3 } ]
        | 3 ->
          let callees = if i = 0 then [] else [ Printf.sprintf "f%d" (gene mod i) ] in
          if callees = [] then Patterns.leaf b ~name ~size:4
          else Patterns.loop_with_calls b ~name ~trip ~callees
        | _ ->
          Patterns.nested_loop b ~name ~outer_trip:(1 + (gene mod 6))
            ~inner_trip:(1 + (gene mod 9))
            ~body_size:3);
        name)
      genome
  in
  Patterns.driver b ~name:"main" funcs;
  Builder.compile b ~name:"fuzz" ~entry:"main"

let policy_exn name =
  match Policies.find name with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Fuzz: unknown policy %S" name)

let fault_exn name =
  match Params.fault_profile name with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Fuzz: unknown fault profile %S" name)

let params_of c =
  { Params.default with Params.faults = Option.map fault_exn c.fault }

let cli_line c =
  Printf.sprintf "regionsel_fuzz --seed %d --genome %s --policy %s%s --steps %d" c.seed
    (String.concat "," (List.map string_of_int c.genome))
    c.policy
    (match c.fault with None -> "" | Some f -> " --fault " ^ f)
    c.max_steps

let run_case ?break_at ?(audit_every = 1) c =
  match
    Check.checked_run ?break_at ~audit_every ~params:(params_of c)
      ~seed:(Int64.of_int c.seed) ~policy:(policy_exn c.policy) ~max_steps:c.max_steps
      (image_of_genome c.genome)
  with
  | (_ : Simulator.result) -> None
  | exception Check.Check_violation v -> Some v

(* What two runs of one case must agree on to count as the same run: every
   counter and the install-ordered region entries. *)
let fingerprint (r : Simulator.result) =
  ( r.Simulator.stats,
    List.map
      (fun (rg : Region.t) -> rg.Region.entry)
      (Code_cache.all_regions r.Simulator.ctx.Context.cache) )

let genome_of_seed seed =
  let g = Splitmix.create ~seed:(Int64.of_int (seed + 0x9e3779)) in
  let n = 1 + Splitmix.int g 6 in
  List.init n (fun _ -> Splitmix.int g 1000)

let fault_profiles_under_test = None :: List.map (fun (n, _) -> Some n) Params.fault_profiles

let run_seed ?(max_steps = 4000) seed =
  let genome = genome_of_seed seed in
  let cases =
    List.concat_map
      (fun (policy, _) ->
        List.map
          (fun fault -> { seed; genome; policy; fault; max_steps })
          fault_profiles_under_test)
      Policies.all
  in
  let rec sweep n = function
    | [] -> (None, n)
    | c :: rest -> (
      match run_case c with
      | None -> sweep (n + 1) rest
      | Some f -> (Some (c, f), n + 1))
  in
  sweep 0 cases

(* --- Snapshot-corruption axis ---------------------------------------

   Capture a valid mid-run snapshot, then batter it — random byte flips,
   truncations, garbage tails — and restore every mutant into a fresh
   run.  Admissible outcomes: a clean restore whose continuation ends
   bit-identical to the uninterrupted run, a degraded restore whose cache
   passes {!Check.audit_cache} immediately and whose run completes, or
   [Persist.Hard_corruption].  Anything else — an unhandled exception, an
   auditor conviction, or a "clean" restore that silently diverges — is a
   failure of the recovery path. *)

type snapshot_outcome = Snapshot_clean | Snapshot_degraded of int | Snapshot_rejected

type snapshot_summary = {
  snap_cases : int;
  snap_clean : int;
  snap_degraded : int;
  snap_rejected : int;
}

(* Plain (unchecked) runs on both sides of the snapshot: the corruption
   axis probes the restore path itself, and a sink-less run keeps every
   emitted section owned by the restoring run.  The matrix sweep above
   already covers checkpoint-free checked runs. *)
let snapshot_of_case c ~at =
  let sim =
    Simulator.create ~params:(params_of c) ~seed:(Int64.of_int c.seed)
      ~policy:(policy_exn c.policy) ~max_steps:c.max_steps (image_of_genome c.genome)
  in
  Simulator.advance sim ~upto:at;
  let snap =
    Persist.encode ~seed:(Int64.of_int c.seed) ~policy:c.policy (Simulator.internals sim)
  in
  (snap, fingerprint (Simulator.finish sim))

let restore_case c bytes =
  let image = image_of_genome c.genome in
  let params = params_of c in
  let program = image.Image.program in
  let report = ref None in
  let restore (internals : Simulator.internals) =
    let r =
      Persist.decode_into bytes ~seed:(Int64.of_int c.seed) ~policy:c.policy internals
    in
    report := Some r;
    (* The structural auditor must accept the cache the instant a restore
       is accepted, degraded or not — a re-warming subsystem starts empty,
       never inconsistent. *)
    let cache = internals.Simulator.int_ctx.Context.cache in
    Check.audit_cache ~program cache ~step:(Code_cache.now cache)
  in
  let result =
    Simulator.run ~params ~seed:(Int64.of_int c.seed) ~restore
      ~policy:(policy_exn c.policy) ~max_steps:c.max_steps image
  in
  (result, Option.get !report)

let snapshot_outcome c ~reference bytes =
  match restore_case c bytes with
  | exception Persist.Hard_corruption _ -> Ok (Snapshot_rejected, "")
  | exception Check.Check_violation v ->
    Error ("restore failed the auditor: " ^ Check.violation_to_string v)
  | exception e -> Error ("restore raised: " ^ Printexc.to_string e)
  | result, report ->
    if Persist.clean report && report.Persist.skipped = 0 then
      if fingerprint result = reference then Ok (Snapshot_clean, "")
      else Error "clean restore silently diverged from the uninterrupted run"
    else
      let reasons =
        List.map
          (fun (d : Persist.degraded) -> d.Persist.section ^ ": " ^ d.Persist.reason)
          report.Persist.degraded
        @ (if report.Persist.skipped > 0 then
             [ Printf.sprintf "%d frames skipped" report.Persist.skipped ]
           else [])
      in
      Ok (Snapshot_degraded (List.length report.Persist.degraded), String.concat "; " reasons)

let mutate g bytes =
  let len = Bytes.length bytes in
  match Splitmix.int g 4 with
  | 0 | 1 ->
    let b = Bytes.copy bytes in
    let flips = 1 + Splitmix.int g 8 in
    for _ = 1 to flips do
      let i = Splitmix.int g len in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Splitmix.int g 255)))
    done;
    (b, "flip")
  | 2 -> (Bytes.sub bytes 0 (Splitmix.int g (len + 1)), "truncate")
  | _ ->
    (* Garbage tail: a valid snapshot followed by junk — the reader must
       reject the junk frames without losing the good prefix. *)
    let extra = 1 + Splitmix.int g 64 in
    let b = Bytes.extend bytes 0 extra in
    for i = len to len + extra - 1 do
      Bytes.set b i (Char.chr (Splitmix.int g 256))
    done;
    (b, "garbage-tail")

let run_snapshot_seed ?(corruptions = 50) ?(max_steps = 3000) seed =
  let policies = Array.of_list (List.map fst Policies.all) in
  let faults = Array.of_list fault_profiles_under_test in
  let c =
    {
      seed;
      genome = genome_of_seed seed;
      policy = policies.(seed mod Array.length policies);
      fault = faults.(seed mod Array.length faults);
      max_steps;
    }
  in
  let snap, reference = snapshot_of_case c ~at:(max 1 (max_steps / 2)) in
  let g = Splitmix.create ~seed:(Int64.of_int (seed + 0x5eed)) in
  let clean = ref 0 and degraded = ref 0 and rejected = ref 0 and n = ref 0 in
  let failure = ref None in
  let try_one label bytes ~pristine =
    incr n;
    match snapshot_outcome c ~reference bytes with
    | Ok (Snapshot_clean, _) -> incr clean
    | Ok (Snapshot_degraded _, _) when not pristine -> incr degraded
    | Ok (Snapshot_degraded _, reasons) ->
      failure :=
        Some (c, Printf.sprintf "%s: pristine snapshot restored degraded (%s)" label reasons)
    | Ok (Snapshot_rejected, _) when not pristine -> incr rejected
    | Ok (Snapshot_rejected, _) ->
      failure := Some (c, label ^ ": pristine snapshot rejected as hard corruption")
    | Error detail -> failure := Some (c, label ^ ": " ^ detail)
  in
  (* Control case: the untouched snapshot must restore cleanly and finish
     bit-identical to the uninterrupted run. *)
  try_one "control" snap ~pristine:true;
  let i = ref 0 in
  while !failure = None && !i < corruptions do
    incr i;
    let bytes, kind = mutate g snap in
    try_one (Printf.sprintf "%s #%d" kind !i) bytes ~pristine:false
  done;
  ( !failure,
    {
      snap_cases = !n;
      snap_clean = !clean;
      snap_degraded = !degraded;
      snap_rejected = !rejected;
    } )

let shrink c0 f0 =
  let best = ref (c0, f0) in
  let try_improve cand =
    match run_case cand with
    | Some f ->
      best := (cand, f);
      true
    | None -> false
  in
  let drop i l = List.filteri (fun j _ -> j <> i) l in
  let halve i l = List.mapi (fun j g -> if j = i then g / 2 else g) l in
  let rec loop () =
    let c, f = !best in
    let candidates =
      (* Clamp the budget to the failing step: a violation raised during
         step [k] reproduces with any budget >= k. *)
      (if f.Check.step < c.max_steps && f.Check.step >= 1 then
         [ { c with max_steps = f.Check.step } ]
       else [])
      @ (match c.fault with Some _ -> [ { c with fault = None } ] | None -> [])
      @ (if List.length c.genome > 1 then
           List.mapi (fun i _ -> { c with genome = drop i c.genome }) c.genome
         else [])
      @ List.concat
          (List.mapi
             (fun i g -> if g > 0 then [ { c with genome = halve i c.genome } ] else [])
             c.genome)
      @ (if c.max_steps > 2 then [ { c with max_steps = c.max_steps / 2 } ] else [])
    in
    if List.exists try_improve candidates then loop ()
  in
  loop ();
  !best

(* --- Multi-stream axis -----------------------------------------------

   Seeded tenant fleets (2-4 tenants, mixed policies and fault profiles)
   exercise the scheduler's two contracts: without a budget, every
   tenant's multiplexed result is bit-identical to running it alone; with
   a shared budget, the outcome (fingerprints, quota counters, round
   count) is identical whatever [n_domains].  Each tenant
   is first run solo under the full sanitizer — the checked run's shadow
   interpreter oracle — so scheduler failures are never confused with
   engine failures.  Failures shrink to a single-tenant reproducer when
   one exists, else to a minimal tenant subset. *)

let stream_cases_of_seed ?(max_steps = 3000) seed =
  let policies = Array.of_list (List.map fst Policies.all) in
  let faults = Array.of_list fault_profiles_under_test in
  let n = 2 + (seed mod 3) in
  List.init n (fun i ->
      let tseed = (seed * 131) + i in
      {
        seed = tseed;
        genome = genome_of_seed tseed;
        policy = policies.((seed + i) mod Array.length policies);
        fault = faults.((seed + (2 * i)) mod Array.length faults);
        max_steps;
      })

let tenants_of_cases cases =
  List.mapi
    (fun i c ->
      ( Printf.sprintf "t%d" i,
        Simulator.create ~params:(params_of c) ~seed:(Int64.of_int c.seed)
          ~policy:(policy_exn c.policy) ~max_steps:c.max_steps (image_of_genome c.genome) ))
    cases

let solo_fingerprint c =
  let image = image_of_genome c.genome in
  fingerprint
    (Simulator.run ~params:(params_of c) ~seed:(Int64.of_int c.seed)
       ~policy:(policy_exn c.policy) ~max_steps:c.max_steps image)

(* Post-run structural audit of every tenant's final cache (including the
   quota-accounting rule); [Some detail] on the first conviction. *)
let audit_outcome (o : Multi_stream.outcome) =
  try
    List.iter
      (fun (name, (r : Simulator.result)) ->
        let cache = r.Simulator.ctx.Context.cache in
        let program = r.Simulator.image.Image.program in
        try Check.audit_cache ~program cache ~step:(Code_cache.now cache)
        with Check.Check_violation v ->
          failwith (name ^ ": " ^ Check.violation_to_string v))
      o.Multi_stream.results;
    None
  with Failure detail -> Some detail

let outcome_fingerprints (o : Multi_stream.outcome) =
  List.map (fun (_, r) -> fingerprint r) o.Multi_stream.results

(* Greedy tenant-subset shrink: a single-tenant reproducer if any tenant
   fails alone, else drop tenants while the fleet still fails. *)
let shrink_tenants fails cases detail =
  let single =
    List.find_map
      (fun c -> Option.map (fun d -> ([ c ], d)) (fails [ c ]))
      cases
  in
  match single with
  | Some r -> r
  | None ->
    let drop i l = List.filteri (fun j _ -> j <> i) l in
    let rec loop cases detail =
      let candidate =
        if List.length cases <= 2 then None
        else
          List.find_map
            (fun i ->
              let cs = drop i cases in
              Option.map (fun d -> (cs, d)) (fails cs))
            (List.init (List.length cases) Fun.id)
      in
      match candidate with
      | Some (cs, d) -> loop cs d
      | None -> (cases, detail)
    in
    loop cases detail

let run_streams_seed ?(max_steps = 3000) seed =
  let cases = stream_cases_of_seed ~max_steps seed in
  let n_tenants = List.length cases in
  (* 1. Every tenant solo under the full sanitizer. *)
  let rec solo = function
    | [] -> None
    | c :: rest -> (
      match run_case ~audit_every:64 c with
      | None -> solo rest
      | Some v -> Some (c, v))
  in
  match solo cases with
  | Some (c, f) ->
    let c, f = shrink c f in
    (Some ([ c ], Check.violation_to_string f), n_tenants)
  | None -> (
    let multi ?budget_bytes ~n_domains cs =
      Multi_stream.run ~n_domains ~batch_steps:512 ?budget_bytes (tenants_of_cases cs)
    in
    let guard f = try f () with e -> Some ("scheduler raised: " ^ Printexc.to_string e) in
    (* 2. No budget: multiplexed == solo, bit for bit, for every tenant. *)
    let parity_fails cs =
      guard (fun () ->
          let o = multi ~n_domains:2 cs in
          match audit_outcome o with
          | Some d -> Some d
          | None ->
            List.find_map
              (fun ((name, _), (got, want)) ->
                if got = want then None
                else Some (name ^ " diverged from its solo run"))
              (List.combine o.Multi_stream.results
                 (List.combine (outcome_fingerprints o) (List.map solo_fingerprint cs))))
    in
    (* 3. Shared budget: the outcome is a pure function of the barrier
       states — identical whatever the domain count. *)
    let budget_of cs =
      let o = multi ~n_domains:1 cs in
      let total =
        List.fold_left
          (fun acc (_, (r : Simulator.result)) ->
            acc + Code_cache.bytes_used r.Simulator.ctx.Context.cache)
          0 o.Multi_stream.results
      in
      max 2048 (total / 2)
    in
    let budget_fails ~budget cs =
      guard (fun () ->
          let o1 = multi ~budget_bytes:budget ~n_domains:1 cs in
          let o2 = multi ~budget_bytes:budget ~n_domains:2 cs in
          match audit_outcome o1 with
          | Some d -> Some d
          | None -> (
            match audit_outcome o2 with
            | Some d -> Some d
            | None ->
              if outcome_fingerprints o1 <> outcome_fingerprints o2 then
                Some "budgeted outcome differs between 1 and 2 domains"
              else if
                (o1.Multi_stream.rounds, o1.Multi_stream.quota_rejects,
                 o1.Multi_stream.quota_evictions)
                <> (o2.Multi_stream.rounds, o2.Multi_stream.quota_rejects,
                    o2.Multi_stream.quota_evictions)
              then Some "budgeted quota counters differ between 1 and 2 domains"
              else None))
    in
    match parity_fails cases with
    | Some detail -> (Some (shrink_tenants parity_fails cases detail), n_tenants)
    | None -> (
      let budget = budget_of cases in
      match budget_fails ~budget cases with
      | Some detail ->
        (Some (shrink_tenants (budget_fails ~budget) cases detail), n_tenants)
      | None -> (None, n_tenants)))

(* --- Flight recorder -------------------------------------------------

   Every fuzz case is deterministic, so the metric history leading up to
   a failure can be reconstructed after the fact: re-run the (shrunk)
   case with a small-window metrics recorder, stopping just short of the
   failing step for a violation (the crash step itself never completes),
   and dump the retained ring with the reproducer CLI line.  The re-run
   is unsanitized — it observes the honest pre-crash history, not the
   corruption the sanitizer injected or convicted. *)

let flight_labels c = [ ("tenant", "fuzz"); ("policy", c.policy); ("dispatch", "threaded") ]

let flight_dump ?(window = 64) ?params c (failure : Check.violation) ~path =
  let params = match params with Some p -> p | None -> params_of c in
  let upto = max 0 (failure.Check.step - 1) in
  let window = max 1 (min window (max 1 (upto / 4))) in
  let r =
    Metrics.create ~window ~keep:Metrics.default_flight_keep ~labels:(flight_labels c) ()
  in
  let sim =
    Simulator.create ~params ~seed:(Int64.of_int c.seed) ~policy:(policy_exn c.policy)
      ~max_steps:upto (image_of_genome c.genome)
  in
  Metrics.advance r sim ~upto;
  let result = Simulator.finish sim in
  Metrics.finalize r result;
  (* A failure inside the first window still ships a (possibly zero-step)
     end-state sample, so a dump always carries at least one window. *)
  if Metrics.n_windows r = 0 then Simulator.sample sim (Metrics.sample r);
  Metrics.flight_dump ~path ~cli:(cli_line c)
    ~detail:(Check.violation_to_string failure)
    (Metrics.windows r)

let self_test ?flight () =
  let image = image_of_genome [ 1 ] in
  (* A threshold of 2 gets the first region installed within a handful of
     steps, so the shrunk reproducer lands well under the 20-step bound. *)
  let params = { Params.default with Params.net_threshold = 2 } in
  let policy = policy_exn "net" in
  let run max_steps =
    match
      Check.checked_run ~break_at:1 ~audit_every:1 ~params ~seed:1L ~policy ~max_steps
        image
    with
    | (_ : Simulator.result) -> None
    | exception Check.Check_violation v -> Some v
  in
  match run 2000 with
  | None -> Error "injected corruption was not caught by the sanitizer"
  | Some v ->
    let rec minimize budget v =
      if v.Check.step >= 1 && v.Check.step < budget then
        match run v.Check.step with
        | Some v' -> minimize v.Check.step v'
        | None -> budget
      else budget
    in
    let budget = minimize 2000 v in
    (match flight with
    | None -> ()
    | Some path ->
      let c = { seed = 1; genome = [ 1 ]; policy = "net"; fault = None; max_steps = budget } in
      ignore (flight_dump ~window:1 ~params c v ~path));
    Ok budget
