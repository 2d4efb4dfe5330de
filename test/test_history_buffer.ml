module History_buffer = Regionsel_core.History_buffer
open Fixtures

let mk ?(capacity = 8) () = History_buffer.create (grid_program ()) ~capacity

let insert t ?(follows_exit = false) src tgt =
  History_buffer.insert t ~src ~tgt ~follows_exit

let find_latest () =
  let t = mk () in
  ignore (insert t 10 20);
  ignore (insert t 30 20);
  match History_buffer.find t 20 with
  | Some e ->
    check_int "hash points at latest occurrence" 30 e.History_buffer.src;
    check_int "sequence of latest" 2 e.History_buffer.seq
  | None -> Alcotest.fail "expected to find target"

let find_missing () =
  let t = mk () in
  ignore (insert t 10 20);
  check_true "unknown target absent" (History_buffer.find t 99 = None)

let eviction () =
  let t = mk ~capacity:4 () in
  ignore (insert t 1 100);
  for i = 2 to 5 do
    ignore (insert t i (200 + i))
  done;
  check_true "evicted entry no longer found" (History_buffer.find t 100 = None);
  check_int "length capped at capacity" 4 (History_buffer.length t)

let entries_after_ordering () =
  let t = mk () in
  let s1 = insert t 1 10 in
  ignore (insert t 2 20);
  ignore (insert t 3 30);
  let after = History_buffer.entries_after t ~seq:s1 in
  Alcotest.(check (list int)) "entries after in order" [ 20; 30 ]
    (List.map (fun e -> e.History_buffer.tgt) after)

let truncate_semantics () =
  let t = mk () in
  let s1 = insert t 1 10 in
  ignore (insert t 2 20);
  ignore (insert t 3 30);
  History_buffer.truncate_after t ~seq:s1;
  check_true "later entries gone" (History_buffer.find t 20 = None);
  check_true "earlier entry survives" (History_buffer.find t 10 <> None);
  check_int "length reflects truncation" 1 (History_buffer.length t);
  Alcotest.(check (list int)) "no entries after" []
    (List.map
       (fun e -> e.History_buffer.tgt)
       (History_buffer.entries_after t ~seq:s1))

let reinsert_after_truncate () =
  let t = mk () in
  let s1 = insert t 1 10 in
  ignore (insert t 2 20);
  History_buffer.truncate_after t ~seq:s1;
  let s2 = insert t 5 50 in
  check_int "sequence numbers restart after the cut" (s1 + 1) s2;
  check_true "new entry found" (History_buffer.find t 50 <> None)

let follows_exit_flag () =
  let t = mk () in
  ignore (insert t ~follows_exit:true 1 10);
  match History_buffer.find t 10 with
  | Some e -> check_true "flag preserved" e.History_buffer.follows_exit
  | None -> Alcotest.fail "entry missing"

let wraparound_find () =
  let t = mk ~capacity:3 () in
  for i = 1 to 10 do
    ignore (insert t i (i mod 4))
  done;
  (* Only the last three entries (i = 8, 9, 10 with tgt 0, 1, 2) are live. *)
  check_true "recent target found" (History_buffer.find t 1 <> None);
  check_true "target overwritten in place still latest" (History_buffer.find t 2 <> None);
  check_true "stale target gone" (History_buffer.find t 3 = None)

(* A fixture with a stale index binding: target 10's most recent
   occurrence (seq 3) is cut by a truncation, and the re-issued seq 3 then
   overwrites its slot with target 30, while the older occurrence of 10
   (seq 1) is still live. *)
let stale_fixture () =
  let t = mk ~capacity:3 () in
  ignore (insert t 1 10);
  ignore (insert t ~follows_exit:true 2 20);
  ignore (insert t 3 10);
  History_buffer.truncate_after t ~seq:2;
  ignore (insert t 4 30);
  t

let stale_binding_shadows_older_occurrence () =
  let t = stale_fixture () in
  check_true "the older occurrence is live"
    (List.exists
       (fun e -> e.History_buffer.tgt = 10 && e.History_buffer.seq = 1)
       (History_buffer.entries_after t ~seq:0));
  check_true "the stale binding is a miss" (History_buffer.find t 10 = None);
  check_int "so a branch to it closes no cycle" 0
    (History_buffer.counted_cycle t ~src:50 ~tgt:10 ~follows_exit:true)

(* The save stream of [stale_fixture], pinned: capacity, the slot arrays
   (sources, targets, flags, sequences), hi, live count, then the index as
   (target, seq) pairs in ascending address order, stale binding
   included. *)
let save_stream_pinned () =
  let saved = ref [] in
  History_buffer.save (stale_fixture ()) (fun v -> saved := v :: !saved);
  Alcotest.(check (list int)) "save stream"
    [ 3; 4; 1; 2; 30; 10; 20; 0; 0; 1; 3; 1; 2; 3; 3; 3; 10; 3; 20; 2; 30; 3 ]
    (List.rev !saved)

(* Oracle for {!History_buffer.length}: count the live entries directly. *)
let length_oracle t = List.length (History_buffer.entries_after t ~seq:0)

let length_after_wraparound () =
  let t = mk ~capacity:4 () in
  for i = 1 to 11 do
    ignore (insert t i (100 + i))
  done;
  check_int "length equals live entries after wraparound" (length_oracle t)
    (History_buffer.length t);
  check_int "full buffer holds capacity entries" 4 (History_buffer.length t)

let length_after_truncate_and_refill () =
  let t = mk ~capacity:4 () in
  for i = 1 to 6 do
    ignore (insert t i (200 + i))
  done;
  History_buffer.truncate_after t ~seq:4;
  check_int "length equals live entries after truncation" (length_oracle t)
    (History_buffer.length t);
  check_int "two live entries remain" 2 (History_buffer.length t);
  (* Refill past the stale slots the truncation left behind. *)
  for i = 1 to 5 do
    ignore (insert t (10 + i) (300 + i))
  done;
  check_int "length equals live entries after refill" (length_oracle t)
    (History_buffer.length t);
  check_int "buffer full again" 4 (History_buffer.length t)

let qcheck_length_matches_live =
  QCheck.Test.make ~name:"length agrees with live entries under insert/truncate" ~count:300
    QCheck.(pair (int_range 1 8) (list_of_size (Gen.int_range 1 120) (int_range 0 60)))
    (fun (capacity, ops) ->
      let t = History_buffer.create (grid_program ()) ~capacity in
      List.iter
        (fun v ->
          if v mod 7 = 0 then History_buffer.truncate_after t ~seq:(v / 2)
          else ignore (insert t v (v * 13 mod 17)))
        ops;
      History_buffer.length t = length_oracle t)

let qcheck_window =
  QCheck.Test.make ~name:"find only returns entries within the window" ~count:200
    QCheck.(pair (int_range 1 16) (list_of_size (Gen.int_range 1 100) (int_range 0 20)))
    (fun (capacity, tgts) ->
      let t = History_buffer.create (grid_program ()) ~capacity in
      let n = List.length tgts in
      List.iteri (fun i tgt -> ignore (insert t i tgt)) tgts;
      let last_seq = n in
      List.for_all
        (fun tgt ->
          match History_buffer.find t tgt with
          | None -> true
          | Some e ->
            e.History_buffer.tgt = tgt
            && e.History_buffer.seq > last_seq - capacity
            && e.History_buffer.seq <= last_seq)
        tgts)

let qcheck_entries_after_sorted =
  QCheck.Test.make ~name:"entries_after is sorted by sequence" ~count:200
    QCheck.(pair (int_range 1 16) (int_range 1 60))
    (fun (capacity, n) ->
      let t = History_buffer.create (grid_program ()) ~capacity in
      for i = 1 to n do
        ignore (insert t i (1000 + i))
      done;
      let entries = History_buffer.entries_after t ~seq:(n / 2) in
      let seqs = List.map (fun e -> e.History_buffer.seq) entries in
      List.sort compare seqs = seqs)

(* Model-based audit of sequence re-issue after truncation.  [insert]
   overwrites ring slots in place and [truncate_after] abandons them where
   they lie, so after a truncation a re-issued sequence number lands in a
   slot whose stale contents the hash index may still point at.  The audit
   outcome — [find_seq] re-checks both the live window and the stored
   target, so a stale hash binding surfaces as a miss, never as a wrong
   entry — is pinned by replaying random insert/truncate streams against a
   naive reference model and requiring [find], [length] and
   [entries_after] to agree with it after every operation. *)
let qcheck_model_audit =
  QCheck.Test.make
    ~name:"find/length/entries_after agree with a naive model across truncation"
    ~count:400
    QCheck.(pair (int_range 1 6) (list_of_size (Gen.int_range 1 160) (int_range 0 1000)))
    (fun (capacity, ops) ->
      let t = History_buffer.create (grid_program ()) ~capacity in
      let live = ref [] in
      let hash = Hashtbl.create 16 in
      let hi = ref 0 in
      let ok = ref true in
      let targets = List.init 13 Fun.id in
      let agree () =
        ok := !ok && History_buffer.length t = List.length !live;
        List.iter
          (fun tgt ->
            let expected =
              match Hashtbl.find_opt hash tgt with
              | None -> None
              | Some s ->
                List.find_opt
                  (fun e -> e.History_buffer.seq = s && e.History_buffer.tgt = tgt)
                  !live
            in
            ok := !ok && History_buffer.find t tgt = expected)
          targets
      in
      List.iter
        (fun v ->
          if v mod 13 = 0 then begin
            let seq = v mod (max 1 (!hi + 2)) in
            History_buffer.truncate_after t ~seq;
            if seq < !hi then begin
              hi := max 0 seq;
              live := List.filter (fun e -> e.History_buffer.seq <= !hi) !live
            end
          end
          else begin
            let src = v mod 7 and tgt = v mod 13 and follows_exit = v mod 2 = 0 in
            let seq = History_buffer.insert t ~src ~tgt ~follows_exit in
            incr hi;
            ok := !ok && seq = !hi;
            Hashtbl.replace hash tgt !hi;
            live :=
              { History_buffer.src; tgt; follows_exit; seq = !hi }
              :: List.filter (fun e -> e.History_buffer.seq > !hi - capacity) !live
          end;
          agree ())
        ops;
      List.iter
        (fun seq ->
          let expected =
            List.sort
              (fun a b -> compare a.History_buffer.seq b.History_buffer.seq)
              (List.filter (fun e -> e.History_buffer.seq > seq) !live)
          in
          ok := !ok && History_buffer.entries_after t ~seq = expected)
        [ 0; !hi / 2; !hi ];
      !ok)

let suite =
  [
    case "find latest" find_latest;
    case "find missing" find_missing;
    case "eviction" eviction;
    case "entries_after ordering" entries_after_ordering;
    case "truncate semantics" truncate_semantics;
    case "reinsert after truncate" reinsert_after_truncate;
    case "follows_exit flag" follows_exit_flag;
    case "wraparound find" wraparound_find;
    case "length after wraparound" length_after_wraparound;
    case "length after truncate and refill" length_after_truncate_and_refill;
    case "stale binding shadows an older occurrence" stale_binding_shadows_older_occurrence;
    case "save stream pinned" save_stream_pinned;
    QCheck_alcotest.to_alcotest qcheck_length_matches_live;
    QCheck_alcotest.to_alcotest qcheck_window;
    QCheck_alcotest.to_alcotest qcheck_entries_after_sorted;
    QCheck_alcotest.to_alcotest qcheck_model_audit;
  ]
