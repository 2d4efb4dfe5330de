(* Differential test for the hot-path overhaul: the dense-id interpreter,
   packed edge profile, and circular history buffer must not change a
   single metric, and fanning runs across domains must not either.

   [Run_metrics.t] is a record of ints, floats, bools, strings and a
   snapshot of the run's [Stats] counters,
   so structural equality is exactly "every metric identical". *)

module Spec = Regionsel_workload.Spec
module Suite = Regionsel_workload.Suite
module Simulator = Regionsel_engine.Simulator
module Domain_pool = Regionsel_engine.Domain_pool
module Edge_profile = Regionsel_engine.Edge_profile
module Run_metrics = Regionsel_metrics.Run_metrics
module Policies = Regionsel_core.Policies
module Addr = Regionsel_isa.Addr
module Block = Regionsel_isa.Block
open Fixtures

(* Small budgets keep the full (workload x policy) sweep test-suite fast
   while still exercising region formation, cache exits, and eviction. *)
let budget (spec : Spec.t) = min spec.Spec.default_steps 30_000

let run ?params (spec : Spec.t) policy_name =
  let policy = Option.get (Policies.find policy_name) in
  Run_metrics.of_result
    (Simulator.run ?params ~seed:1L ~policy ~max_steps:(budget spec) (Spec.image spec))

let tasks = Suite.grid (List.map fst Policies.all)

let check_pairwise ~what reference candidate =
  List.iter2
    (fun ((spec : Spec.t), pname) (r, c) ->
      if r <> c then
        Alcotest.failf "%s: metrics differ for %s under %s:\nreference: %a\ncandidate: %a"
          what spec.Spec.name pname Run_metrics.pp r Run_metrics.pp c)
    tasks
    (List.combine reference candidate)

(* The reference: every pair simulated twice sequentially must agree with
   itself — a guard that the simulator is deterministic at all (otherwise
   the parallel comparison below proves nothing). *)
let sequential_deterministic () =
  let a = List.map (fun (spec, p) -> run spec p) tasks in
  let b = List.map (fun (spec, p) -> run spec p) tasks in
  check_pairwise ~what:"sequential repeat" a b

let sequential_vs_parallel () =
  (* Images are lazy: force them on this domain before fanning out. *)
  List.iter (fun ((spec : Spec.t), _) -> ignore (Spec.image spec)) tasks;
  let reference = List.map (fun (spec, p) -> run spec p) tasks in
  let pooled = Domain_pool.map ~n_domains:4 (fun (spec, p) -> run spec p) tasks in
  check_pairwise ~what:"parallel (4 domains)" reference pooled

(* The fault layer's zero-fault guarantee: enabling the machinery with an
   empty schedule must leave every exported metric identical to a run with
   the machinery disabled — the fault path costs the clean path nothing. *)
let empty_fault_profile_is_identity () =
  let params =
    { Regionsel_engine.Params.default with
      Regionsel_engine.Params.faults = Some Regionsel_engine.Params.no_faults
    }
  in
  let reference = List.map (fun (spec, p) -> run spec p) tasks in
  let with_empty_faults = List.map (fun (spec, p) -> run ~params spec p) tasks in
  check_pairwise ~what:"empty fault profile" reference with_empty_faults

(* The paper matrix pinned byte for byte: one MD5 of [Run_metrics.to_json]
   per (bench, policy, clean|mixed) cell, at seed 1 and this file's
   budget.  The digests cover every exported metric, link and node
   counters included.  A mismatch prints the cell, its replacement line
   and the full JSON, so an intended metric change is reviewed cell by
   cell rather than regenerated blind. *)
let golden_path = "golden/paper_matrix.txt"

let paper_matrix_matches_golden () =
  let golden = In_channel.with_open_text golden_path In_channel.input_lines in
  let mixed = Regionsel_engine.Params.fault_profile "mixed" in
  let lines =
    List.concat_map
      (fun ((spec : Spec.t), pname) ->
        List.map
          (fun (mode, faults) ->
            let params = { Regionsel_engine.Params.default with Regionsel_engine.Params.faults } in
            let json = Run_metrics.to_json (run ~params spec pname) in
            let line =
              Printf.sprintf "%s %s %s %s" spec.Spec.name pname mode
                (Digest.to_hex (Digest.string json))
            in
            (line, json))
          [ ("clean", None); ("mixed", mixed) ])
      tasks
  in
  check_int "one golden line per cell" (List.length lines) (List.length golden);
  List.iter2
    (fun (line, json) want ->
      if line <> want then
        Alcotest.failf "paper matrix cell changed:\n  golden: %s\n  now:    %s\nfull JSON: %s" want
          line json)
    lines golden

(* The batched edge profile must be observationally exact.  Part one: a
   real fault run (watchdog windows = Stats.snapshot boundaries, each
   preceded by a ring drain) whose final profile must equal a per-step
   reference rebuilt by the observer — same edges, same counts, nothing
   lost or double-counted across all the mid-run flushes. *)
let batched_profile_matches_per_step () =
  let spec = List.hd Suite.all in
  let policy = Option.get (Policies.find "net") in
  let faults = Regionsel_engine.Params.fault_profile "mixed" in
  let params = { Regionsel_engine.Params.default with Regionsel_engine.Params.faults } in
  let reference : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let stream = ref [] in
  let observer =
    {
      Simulator.on_context = (fun _ -> ());
      on_step =
        (fun ~step:_ ~block ~taken ~next ~believed:_ ->
          if not (Addr.is_none next) then begin
            let key = (block.Block.start, next) in
            Hashtbl.replace reference key
              (1 + Option.value ~default:0 (Hashtbl.find_opt reference key));
            stream := (taken, key) :: !stream
          end);
    }
  in
  let result =
    Simulator.run ~params ~seed:1L ~observer ~policy ~max_steps:(budget spec)
      (Spec.image spec)
  in
  let edges = result.Simulator.edges in
  check_true "the run actually drained the ring at least once"
    (Edge_profile.flushes edges >= 1);
  let n =
    Edge_profile.fold
      (fun ~src ~dst n acc ->
        (match Hashtbl.find_opt reference (src, dst) with
        | Some r when r = n -> ()
        | Some r ->
          Alcotest.failf "edge %s->%s: profile says %d, per-step reference says %d"
            (Addr.to_string src) (Addr.to_string dst) n r
        | None ->
          Alcotest.failf "edge %s->%s: in the profile but never observed"
            (Addr.to_string src) (Addr.to_string dst));
        acc + 1)
      edges 0
  in
  check_int "profile holds exactly the observed edge set" (Hashtbl.length reference) n;
  ((Spec.image spec).Regionsel_workload.Image.program, List.rev !stream)

(* Part two: replay that same step stream into fresh profiles, forcing a
   flush-and-read at every [k]th step for several boundary spacings.  Every
   boundary must see counts identical to the per-step reference — exactness
   at *every* observation point, not just the end of the run.  Two profiles
   take the stream: one through the ring alone ([record]), one through the
   dense per-successor tier ([record_step] over the program).  The dense
   one is also saved and loaded into a fresh profile halfway through, and
   the copy must end with the uninterrupted profile's counts and save
   stream. *)
let batched_profile_exact_at_every_boundary () =
  let program, stream = batched_profile_matches_per_step () in
  let half = List.length stream / 2 in
  List.iter
    (fun k ->
      let ring = Edge_profile.create ~program () in
      let dense = Edge_profile.create ~program () in
      let resumed = ref (Edge_profile.create ~program ()) in
      let reference : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
      let check what e ~src ~dst r =
        if Edge_profile.count e ~src ~dst <> r then
          Alcotest.failf "%s, boundary spacing %d: edge %s->%s counts %d, expected %d" what k
            (Addr.to_string src) (Addr.to_string dst)
            (Edge_profile.count e ~src ~dst)
            r
      in
      List.iteri
        (fun i (taken, ((src, dst) as key)) ->
          if i = half then begin
            let copy = Edge_profile.create ~program () in
            Edge_profile.load copy (reader_of_ints (saved_ints (Edge_profile.save dense)));
            resumed := copy
          end;
          let block_id = Regionsel_isa.Program.block_id program src in
          Edge_profile.record ring ~src ~dst;
          Edge_profile.record_step dense ~block_id ~taken ~src ~dst;
          if i >= half then Edge_profile.record_step !resumed ~block_id ~taken ~src ~dst;
          Hashtbl.replace reference key
            (1 + Option.value ~default:0 (Hashtbl.find_opt reference key));
          if (i + 1) mod k = 0 then begin
            let r = Hashtbl.find reference key in
            Edge_profile.flush ring;
            check "ring" ring ~src ~dst r;
            check "dense" dense ~src ~dst r;
            if i >= half then check "resumed" !resumed ~src ~dst r
          end)
        stream;
      Hashtbl.iter
        (fun (src, dst) r ->
          check "ring, at the end" ring ~src ~dst r;
          check "dense, at the end" dense ~src ~dst r;
          check "resumed, at the end" !resumed ~src ~dst r)
        reference;
      List.iter
        (fun e -> check_int "no unobserved edges" (Hashtbl.length reference) (Edge_profile.n_edges e))
        [ ring; dense; !resumed ];
      Alcotest.(check (list int))
        (Printf.sprintf "boundary spacing %d: the resumed profile saves as the uninterrupted one" k)
        (saved_ints (Edge_profile.save dense))
        (saved_ints (Edge_profile.save !resumed)))
    [ 1; 7; 64; 1000 ]

let suite =
  [
    case "sequential runs are deterministic" sequential_deterministic;
    case "pooled runs match sequential bit-for-bit" sequential_vs_parallel;
    case "empty fault profile leaves metrics identical" empty_fault_profile_is_identity;
    case "paper matrix matches golden digests" paper_matrix_matches_golden;
    case "batched edge profile is exact at every boundary"
      batched_profile_exact_at_every_boundary;
  ]
