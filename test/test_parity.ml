(* Differential test for the hot-path overhaul: the dense-id interpreter,
   packed edge profile, and circular history buffer must not change a
   single metric, and fanning runs across domains must not either.

   [Run_metrics.t] is a flat record of ints, floats, bools, and strings,
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

let tasks =
  List.concat_map
    (fun (spec : Spec.t) -> List.map (fun (p, _) -> spec, p) Policies.all)
    Suite.all

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
        (fun ~step:_ ~block ~taken:_ ~next ~believed:_ ->
          if not (Addr.is_none next) then begin
            let key = (block.Block.start, next) in
            Hashtbl.replace reference key
              (1 + Option.value ~default:0 (Hashtbl.find_opt reference key));
            stream := key :: !stream
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
  !stream

(* Part two: replay that same step stream into fresh profiles, forcing a
   flush-and-read at every [k]th step for several boundary spacings.  Every
   boundary must see counts identical to the per-step reference — exactness
   at *every* observation point, not just the end of the run. *)
let batched_profile_exact_at_every_boundary () =
  let stream = List.rev (batched_profile_matches_per_step ()) in
  List.iter
    (fun k ->
      let e = Edge_profile.create () in
      let reference : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
      List.iteri
        (fun i ((src, dst) as key) ->
          Edge_profile.record e ~src ~dst;
          Hashtbl.replace reference key
            (1 + Option.value ~default:0 (Hashtbl.find_opt reference key));
          if (i + 1) mod k = 0 then begin
            Edge_profile.flush e;
            if Edge_profile.count e ~src ~dst <> Hashtbl.find reference key then
              Alcotest.failf
                "boundary spacing %d, step %d: edge %s->%s flushed to %d but the \
                 per-step count is %d"
                k (i + 1) (Addr.to_string src) (Addr.to_string dst)
                (Edge_profile.count e ~src ~dst)
                (Hashtbl.find reference key)
          end)
        stream;
      Hashtbl.iter
        (fun (src, dst) r ->
          if Edge_profile.count e ~src ~dst <> r then
            Alcotest.failf "boundary spacing %d: edge %s->%s ends at %d, expected %d" k
              (Addr.to_string src) (Addr.to_string dst)
              (Edge_profile.count e ~src ~dst)
              r)
        reference)
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
