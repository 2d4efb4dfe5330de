(* Unit tests for the pipeline benchmark's statistics. *)

let feq = Alcotest.float 1e-12
let fopt = Alcotest.option feq
let ints n = Array.init n (fun i -> float_of_int (i + 1))

let empty_input () =
  Alcotest.check fopt "percentile of nothing" None (Stats.percentile [||] ~p:50.0);
  Alcotest.check fopt "tail of nothing" None (Stats.tail [||] ~p:90.0);
  Alcotest.(check bool) "no summary" true (Stats.summarize [||] = None);
  Alcotest.check_raises "rank of nothing" (Invalid_argument "Stats.rank: no samples") (fun () ->
      ignore (Stats.rank ~n:0 ~p:50.0))

let one_sample () =
  match Stats.summarize [| 4.5 |] with
  | None -> Alcotest.fail "one sample has a summary"
  | Some s ->
    Alcotest.(check int) "n" 1 s.Stats.n;
    List.iter
      (fun (what, v) -> Alcotest.check feq what 4.5 v)
      [ ("median", s.Stats.median); ("q1", s.Stats.q1); ("q3", s.Stats.q3) ];
    Alcotest.check fopt "p99 refused" None (Stats.tail [| 4.5 |] ~p:99.0)

let nearest_rank () =
  Alcotest.(check int) "p50 of 10" 5 (Stats.rank ~n:10 ~p:50.0);
  Alcotest.(check int) "p90 of 100" 90 (Stats.rank ~n:100 ~p:90.0);
  Alcotest.(check int) "p99 of 1000" 990 (Stats.rank ~n:1000 ~p:99.0);
  Alcotest.(check int) "p0 clamps to the first" 1 (Stats.rank ~n:7 ~p:0.0);
  Alcotest.(check int) "p100 is the last" 7 (Stats.rank ~n:7 ~p:100.0);
  (* Unsorted input: the percentile reads the sorted order. *)
  Alcotest.check fopt "median of a shuffle" (Some 3.0) (Stats.percentile [| 5.; 1.; 4.; 2.; 3. |] ~p:50.0);
  match Stats.summarize (ints 8) with
  | Some s ->
    Alcotest.check feq "q1 of 1..8" 2.0 s.Stats.q1;
    Alcotest.check feq "median of 1..8" 4.0 s.Stats.median;
    Alcotest.check feq "q3 of 1..8" 6.0 s.Stats.q3
  | None -> Alcotest.fail "summary"

let ties () =
  let a = [| 2.0; 2.0; 2.0; 7.0; 2.0; 2.0 |] in
  (match Stats.summarize a with
  | Some s ->
    Alcotest.check feq "median of ties" 2.0 s.Stats.median;
    Alcotest.check feq "q3 of ties" 2.0 s.Stats.q3;
    Alcotest.check fopt "p100 finds the outlier" (Some 7.0) (Stats.percentile a ~p:100.0)
  | None -> Alcotest.fail "summary");
  Alcotest.check fopt "all equal" (Some 3.0) (Stats.percentile (Array.make 50 3.0) ~p:75.0)

let refusal_threshold () =
  (* p90 needs ten samples past rank ceil(0.9 n): n = 100 has exactly ten. *)
  Alcotest.(check int) "beyond p90 of 99" 9 (Stats.beyond ~n:99 ~p:90.0);
  Alcotest.check fopt "p90 of 99 refused" None (Stats.tail (ints 99) ~p:90.0);
  Alcotest.check fopt "p90 of 100 emitted" (Some 90.0) (Stats.tail (ints 100) ~p:90.0);
  Alcotest.check fopt "p99 of 999 refused" None (Stats.tail (ints 999) ~p:99.0);
  Alcotest.check fopt "p99 of 1000 emitted" (Some 990.0) (Stats.tail (ints 1000) ~p:99.0);
  Alcotest.check fopt "p50 of 20 emitted" (Some 10.0) (Stats.tail (ints 20) ~p:50.0);
  Alcotest.check fopt "p50 of 19 refused" None (Stats.tail (ints 19) ~p:50.0)

let ratios () =
  let r = Stats.ratio ~num:3.0 ~base:4.0 in
  Alcotest.check feq "value" 0.75 r.Stats.value;
  Alcotest.check feq "base kept" 4.0 r.Stats.base;
  let z = Stats.ratio ~num:3.0 ~base:0.0 in
  Alcotest.check feq "zero base reads 0" 0.0 z.Stats.value;
  Alcotest.check feq "zero base kept" 0.0 z.Stats.base

let () =
  Alcotest.run "pipeline_stats"
    [
      ( "stats",
        [
          Alcotest.test_case "empty input" `Quick empty_input;
          Alcotest.test_case "one sample" `Quick one_sample;
          Alcotest.test_case "nearest rank" `Quick nearest_rank;
          Alcotest.test_case "ties" `Quick ties;
          Alcotest.test_case "refusal threshold" `Quick refusal_threshold;
          Alcotest.test_case "ratios keep their base" `Quick ratios;
        ] );
    ]
