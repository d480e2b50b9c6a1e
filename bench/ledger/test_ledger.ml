(* Unit tests of the ledger's statistics, bisection, residual and
   self-time helpers, and of the agreement between its metric names and
   BENCHMARK.json. *)

open Ledger_lib

let close = Alcotest.float 1e-9
let range n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  let a = range 10 in
  Alcotest.check close "p50 of 1..10" 5. (Stats.percentile a 0.5);
  Alcotest.check close "p90 of 1..10" 9. (Stats.percentile a 0.9);
  Alcotest.check close "p100" 10. (Stats.percentile a 1.0);
  Alcotest.check close "p0" 1. (Stats.percentile a 0.);
  Alcotest.check close "p99 of 1..100" 99. (Stats.percentile (range 100) 0.99);
  Alcotest.check close "median sorts a copy" 2.
    (Stats.median (Stats.sorted [| 3.; 1.; 2. |]));
  Alcotest.check_raises "no samples"
    (Invalid_argument "Stats.percentile: no samples") (fun () ->
      ignore (Stats.percentile [||] 0.5))

let test_tail () =
  let q, v = Stats.tail ~q:0.99 (range 1000) in
  Alcotest.check close "p99 when ten lie beyond" 0.99 q;
  Alcotest.check close "p99 value" 990. v;
  let q, v = Stats.tail ~q:0.99 (range 500) in
  Alcotest.check close "falls back to ten beyond" 0.98 q;
  Alcotest.check close "the sample with ten above it" 490. v;
  Alcotest.check close "few samples: the maximum" 5.
    (snd (Stats.tail ~q:0.99 (range 5)))

(* Expected values from Python's statistics.quantiles(data, n=4). *)
let test_quartiles () =
  let q1, q3 = Stats.quartiles (range 10) in
  Alcotest.check close "q1 of 1..10" 2.75 q1;
  Alcotest.check close "q3 of 1..10" 8.25 q3;
  let q1, q3 = Stats.quartiles (range 4) in
  Alcotest.check close "q1 of 1..4" 1.25 q1;
  Alcotest.check close "q3 of 1..4" 3.75 q3;
  let q1, q3 = Stats.quartiles [| 10.; 20. |] in
  Alcotest.check close "q1 of two (clamped index)" 7.5 q1;
  Alcotest.check close "q3 of two extrapolates" 22.5 q3;
  Alcotest.check close "even median" 5.5 (Stats.py_median (range 10));
  Alcotest.check close "odd median" 3. (Stats.py_median (range 5));
  Alcotest.check close "spread of 1..10" 1.0 (Stats.spread (range 10))

let test_bisect () =
  let best, probes =
    Stats.bisect ~lo:1000. ~hi:3000. ~steps:5 (fun r -> r <= 2000.)
  in
  Alcotest.check close "highest passing rate" 2000. best;
  Alcotest.(check (list (pair (float 1e-9) bool)))
    "probes in order"
    [
      (2000., true);
      (2500., false);
      (2250., false);
      (2125., false);
      (2062.5, false);
    ]
    probes;
  Alcotest.check close "nothing passes" 1000.
    (fst (Stats.bisect ~lo:1000. ~hi:3000. ~steps:5 (fun _ -> false)));
  Alcotest.check close "everything passes" 2937.5
    (fst (Stats.bisect ~lo:1000. ~hi:3000. ~steps:5 (fun _ -> true)))

let test_residual () =
  Alcotest.check close "whole minus parts" 3.
    (Stats.residual ~whole:10. [ 3.; 4. ]);
  Alcotest.check close "no parts" 10. (Stats.residual ~whole:10. []);
  Alcotest.check close "parts larger than the whole" (-1.)
    (Stats.residual ~whole:10. [ 11. ])

let ev ts kind = { Obs.Event.ts = Int64.of_int ts; kind }
let b ?(cat = "phase") name = Obs.Event.Begin { name; cat; args = [] }

let test_self_time () =
  let t = Spans.create () in
  Spans.add t
    [
      ev 0 (b "a");
      ev 10 (b "b");
      ev 30 Obs.Event.End;
      ev 40 (b "b");
      ev 45 Obs.Event.End;
      ev 100 Obs.Event.End;
    ];
  Alcotest.(check int) "a total" 100 (Spans.total_ns t "a");
  Alcotest.(check int) "a self" 75 (Spans.self_ns t "a");
  Alcotest.(check int) "b total, both spans" 25 (Spans.total_ns t "b");
  Alcotest.(check int) "covered = top-level duration" 100 (Spans.covered_ns t);
  let t = Spans.create () in
  let skip ~cat = cat = "pool" in
  Spans.add ~skip t
    [
      ev 0 (b "a");
      ev 10 (b ~cat:"pool" "run");
      ev 15 (b "x");
      ev 17 Obs.Event.End;
      ev 30 Obs.Event.End;
      ev 40 Obs.Event.End;
    ];
  Alcotest.(check int)
    "skipped category not recorded" 0 (Spans.total_ns t "run");
  Alcotest.(check int) "its child still is" 2 (Spans.self_ns t "x");
  Alcotest.(check int) "and it covers its parent" 20 (Spans.self_ns t "a")

(* BENCHMARK.json must list exactly the names and units the ledger
   reports. *)
let test_benchmark_json () =
  let ic = open_in "../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j =
    match Server_lib.Json.parse text with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let list name =
    let field = Server_lib.Json.member name j in
    match Option.bind field Server_lib.Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail ("no list " ^ name)
  in
  let str k o = Option.get (Server_lib.Json.str_field k o) in
  Alcotest.(check (list string))
    "workloads" Names.workloads
    (List.map (str "name") (list "workloads"));
  let named key = List.map (fun o -> (str "name" o, str "unit" o)) (list key) in
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end_to_end" Names.end_to_end (named "end_to_end");
  Alcotest.check pairs "per_layer" Names.per_layer (named "per_layer");
  List.iter
    (fun o ->
      match Server_lib.Json.member "bound" o with
      | Some (Server_lib.Json.Float f) ->
          Alcotest.(check bool)
            (str "name" o ^ " bound in (0, 0.25]")
            true
            (f > 0. && f <= 0.25)
      | _ -> Alcotest.fail (str "name" o ^ ": no bound"))
    (list "end_to_end")

let () =
  Alcotest.run "ledger"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "tail" `Quick test_tail;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "bisection" `Quick test_bisect;
          Alcotest.test_case "residual" `Quick test_residual;
        ] );
      ("spans", [ Alcotest.test_case "self time" `Quick test_self_time ]);
      ( "names",
        [ Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json ] );
    ]
