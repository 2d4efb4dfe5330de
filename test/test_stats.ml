(* Stats snapshots: immutable copies and field-wise windows, the substrate
   the bailout watchdog and windowed telemetry read instead of live
   mutable counters.  Every check loops over [Stats.fields], so a new
   counter is covered without touching this file. *)

module Stats = Regionsel_engine.Stats
open Fixtures

let primes = [| 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53 |]

(* Touch every counter with a distinct prime so a copied or swapped field
   shows up as a wrong delta. *)
let bump (s : Stats.t) k =
  Array.iteri
    (fun i (f : Stats.field) -> f.Stats.set s (f.Stats.get s + (primes.(i) * k)))
    Stats.fields

(* [expect i f] is the value counter [i] must hold. *)
let check_fields what (s : Stats.t) expect =
  Array.iteri
    (fun i (f : Stats.field) ->
      Alcotest.(check int) (what ^ ": " ^ f.Stats.name) (expect i f) (f.Stats.get s))
    Stats.fields

(* The primes assigned by field name, independently of the table. *)
let primed () =
  {
    Stats.steps = 2;
    interpreted_insts = 3;
    cached_insts = 5;
    taken_branches = 7;
    region_transitions = 11;
    dispatches = 13;
    cache_exits_to_interp = 17;
    installs = 19;
    links = 23;
    link_hits = 29;
    node_steps = 31;
    install_rejects = 37;
    faults_injected = 41;
    async_exits = 43;
    bailouts = 47;
    recovery_steps = 53;
  }

let table_covers_every_counter () =
  let s = Stats.create () in
  bump s 1;
  check_true "each table entry reaches its own counter" (s = primed ())

(* The on-disk order: reordering the table would make every existing
   snapshot restore into the wrong counters. *)
let save_order_is_pinned () =
  let saved = ref [] in
  Stats.save (primed ()) (fun v -> saved := v :: !saved);
  Alcotest.(check (list int))
    "counters saved in declaration order"
    [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53 ]
    (List.rev !saved)

let snapshot_is_frozen () =
  let s = Stats.create () in
  bump s 1;
  let snap = Stats.snapshot s in
  bump s 10;
  (* The copy must not move with the live record. *)
  check_fields "frozen" snap (fun i _ -> primes.(i));
  Alcotest.(check int) "live record moved" 22 s.Stats.steps

let snapshot_copies_every_field () =
  let s = Stats.create () in
  bump s 1;
  let snap = Stats.snapshot s in
  check_fields "copied" snap (fun _ f -> f.Stats.get s)

let diff_is_field_wise () =
  let s = Stats.create () in
  bump s 3;
  let earlier = Stats.snapshot s in
  bump s 4;
  let later = Stats.snapshot s in
  (* Each delta is prime * 4: the window's activity only. *)
  check_fields "delta" (Stats.diff ~earlier ~later) (fun i _ -> primes.(i) * 4)

let diff_of_equal_snapshots_is_zero () =
  let s = Stats.create () in
  bump s 5;
  let snap = Stats.snapshot s in
  check_fields "zero" (Stats.diff ~earlier:snap ~later:snap) (fun _ _ -> 0)

let diff_clamps_reloaded_counters () =
  (* A snapshot taken before a counter reload (checkpoint restore into a
     younger state, or a test harness recycling a [Stats.t]) can exceed
     the later one.  The window must read as empty activity, never as a
     negative delta that would corrupt rate math downstream. *)
  let s = Stats.create () in
  bump s 7;
  let earlier = Stats.snapshot s in
  let fresh = Stats.create () in
  bump fresh 2;
  check_fields "clamped" (Stats.diff ~earlier ~later:fresh) (fun _ _ -> 0)

let diff_clamps_per_field_not_per_record () =
  (* The clamp is field-wise: counters that did advance across the window
     still report their delta even when a sibling field went backwards. *)
  let s = Stats.create () in
  bump s 3;
  let earlier = Stats.snapshot s in
  bump s 2;
  (* One counter "reloads" below its earlier value; the rest advanced. *)
  s.Stats.recovery_steps <- 1;
  let later = Stats.snapshot s in
  check_fields "window" (Stats.diff ~earlier ~later) (fun i f ->
      if f.Stats.name = "recovery_steps" then 0 else primes.(i) * 2)

let suite =
  [
    case "table covers every counter" table_covers_every_counter;
    case "save order is pinned" save_order_is_pinned;
    case "snapshot is frozen" snapshot_is_frozen;
    case "snapshot copies every field" snapshot_copies_every_field;
    case "diff is field-wise" diff_is_field_wise;
    case "diff of equal snapshots is zero" diff_of_equal_snapshots_is_zero;
    case "diff clamps reloaded counters" diff_clamps_reloaded_counters;
    case "diff clamps per field, not per record" diff_clamps_per_field_not_per_record;
  ]
