(* Tests for the code emitter: the emitted image must agree with the
   abstract region (instruction counts, stub counts, the byte-cost model
   and the layout) on every region any policy selects. *)

open Regionsel_isa
module Emitter = Regionsel_engine.Emitter
module Region = Regionsel_engine.Region
module Policies = Regionsel_core.Policies
open Fixtures

let mk start size term = Block.make ~start ~size ~term

let emit_path ?(kind = Region.Trace) blocks final_next =
  let spec = Region.spec_of_path ~kind { Region.blocks; final_next } in
  Emitter.emit (Region.of_spec ~id:0 ~selected_at:0 ~program:(grid_program ()) spec)

let simple_cycle () =
  let e =
    emit_path [ mk 0 3 (Terminator.Cond 100); mk 3 2 (Terminator.Cond 0) ] (Some 0)
  in
  check_int "five instructions" 5 (Array.length e.Emitter.body);
  check_int "two stubs" 2 (Array.length e.Emitter.stubs);
  check_int "bytes match the cost model" (Region.cache_bytes e.Emitter.region)
    (Emitter.total_bytes e);
  (* The back edge must be internal to offset 0. *)
  match e.Emitter.body.(4) with
  | Emitter.Rewritten { taken = Some (Emitter.Internal 0); _ } -> ()
  | _ -> Alcotest.fail "cycle branch should be rewritten to the region top"

let stub_targets_recorded () =
  let e =
    emit_path [ mk 0 3 (Terminator.Cond 100); mk 3 2 (Terminator.Cond 0) ] (Some 0)
  in
  let targets =
    Array.to_list e.Emitter.stubs
    |> List.filter_map (fun s -> s.Emitter.exit_target)
    |> List.sort compare
  in
  Alcotest.(check (list int)) "stub exits are the off-region directions" [ 5; 100 ] targets

let indirect_stub_has_no_static_target () =
  let e = emit_path [ mk 0 2 Terminator.Return ] None in
  check_int "one stub" 1 (Array.length e.Emitter.stubs);
  check_true "no static target" ((e.Emitter.stubs.(0)).Emitter.exit_target = None)

let copied_instructions_enumerated () =
  let e = emit_path [ mk 10 4 Terminator.Return ] None in
  let copied =
    Array.to_list e.Emitter.body
    |> List.filter_map (function Emitter.Copied { orig } -> Some orig | _ -> None)
  in
  Alcotest.(check (list int)) "straight-line prefix copied" [ 10; 11; 12 ] copied

let agreement_on_real_regions () =
  (* Every region selected by every policy on the scenario programs must
     emit consistently. *)
  List.iter
    (fun (_, policy) ->
      List.iter
        (fun image ->
          let result = run ~max_steps:60_000 policy image in
          List.iter
            (fun r ->
              let e = Emitter.emit r in
              check_int "instruction count matches expansion" r.Region.copied_insts
                (Array.length e.Emitter.body);
              check_int "byte size matches the cost model" (Region.cache_bytes r)
                (Emitter.total_bytes e);
              (* Internal operands stay inside the body; stub indices are
                 dense. *)
              Array.iter
                (fun inst ->
                  match inst with
                  | Emitter.Copied _ -> ()
                  | Emitter.Rewritten { taken; fall; _ } ->
                    List.iter
                      (function
                        | Some (Emitter.Internal off) ->
                          check_true "internal offset within body"
                            (off >= 0 && off < Emitter.body_bytes e)
                        | Some (Emitter.Stub i) ->
                          check_true "stub index dense"
                            (i >= 0 && i < Array.length e.Emitter.stubs)
                        | None -> ())
                      [ taken; fall ])
                e.Emitter.body)
            (regions_of result))
        [ figure2 (); figure3 (); figure4 () ])
    Policies.all

let pp_smoke () =
  let e =
    emit_path [ mk 0 3 (Terminator.Cond 100); mk 3 2 (Terminator.Cond 0) ] (Some 0)
  in
  let rendered = Format.asprintf "%a" Emitter.pp e in
  check_true "listing mentions stubs" (contains ~sub:"stub0" rendered);
  check_true "listing mentions offsets" (contains ~sub:"+0000" rendered)

let suite =
  [
    case "simple cycle" simple_cycle;
    case "stub targets recorded" stub_targets_recorded;
    case "indirect stub has no static target" indirect_stub_has_no_static_target;
    case "copied instructions enumerated" copied_instructions_enumerated;
    case "agreement on real regions (all policies)" agreement_on_real_regions;
    case "pp smoke" pp_smoke;
  ]
