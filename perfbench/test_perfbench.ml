(* Unit tests of the benchmark's pure parts. None of them runs a workload. *)

open Perfbench
module Json = Hermes_obs.Json

let close = Alcotest.float 1e-9

(* Reference values from Python's statistics.quantiles(values, n=4). *)
let quartiles () =
  let check xs (q1, m, q3) =
    let s = Summary.of_samples xs in
    Alcotest.check close "q1" q1 s.Summary.q1;
    Alcotest.check close "median" m s.Summary.median;
    Alcotest.check close "q3" q3 s.Summary.q3;
    Alcotest.(check int) "n" (List.length xs) s.Summary.n
  in
  check [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] (2.75, 5.5, 8.25);
  check [ 4.; 2.; 3.; 1. ] (1.25, 2.5, 3.75);
  check [ 3.; 1. ] (0.5, 2.0, 3.5);
  check [ 7.; 1.; 4. ] (1.0, 4.0, 7.0);
  check [ 5. ] (5.0, 5.0, 5.0);
  Alcotest.check_raises "no samples" (Invalid_argument "Summary.of_samples: no samples") (fun () ->
      ignore (Summary.of_samples []))

let verdict = Alcotest.testable (Fmt.of_to_string Verdict.to_string) ( = )

let classify name ~baseline ~current =
  Verdict.classify (Metric.find_end_to_end name) ~baseline ~current

let relative_bound () =
  let base = [ 100.; 101.; 99.; 100.5; 99.5 ] in
  let check expected current =
    Alcotest.check verdict "wall_tps" expected (classify "wall_tps" ~baseline:base ~current)
  in
  check Verdict.Same [ 85.; 86.; 84.; 85.5; 84.5 ];
  check Verdict.Worse [ 70.; 71.; 69.; 70.5; 69.5 ];
  check Verdict.Better [ 130.; 131.; 129.; 130.5; 129.5 ];
  (* quartile spread wider than the 25% bound: unresolved ... *)
  check Verdict.Unresolved [ 50.; 150.; 70.; 130.; 60. ];
  (* ... unless every run beats every baseline run *)
  check Verdict.Better [ 102.; 190.; 130.; 170.; 110. ];
  (* lower is better for verify_s *)
  Alcotest.check verdict "verify_s" Verdict.Worse
    (classify "verify_s" ~baseline:[ 1.0; 1.01; 0.99 ] ~current:[ 1.3; 1.31; 1.29 ])

let absolute_floor () =
  let base = [ 0.010; 0.011; 0.010 ] in
  (* +300%, but inside setup_s's 50 ms floor *)
  Alcotest.check verdict "within floor" Verdict.Same
    (classify "setup_s" ~baseline:base ~current:[ 0.040; 0.041; 0.040 ]);
  Alcotest.check verdict "past floor" Verdict.Worse
    (classify "setup_s" ~baseline:base ~current:[ 0.080; 0.081; 0.080 ]);
  (* on a large baseline the relative bound (25%) is the wider one *)
  Alcotest.check verdict "relative wins" Verdict.Same
    (classify "setup_s" ~baseline:[ 1.0; 1.0; 1.0 ] ~current:[ 1.2; 1.2; 1.2 ])

let exact () =
  let check name expected current =
    Alcotest.check verdict name expected (classify name ~baseline:[ 230.5 ] ~current)
  in
  check "sim_tps" Verdict.Same [ 230.5 ];
  check "sim_tps" Verdict.Worse [ 230.49 ];
  check "sim_tps" Verdict.Better [ 230.51 ];
  check "sim_p99_ms" Verdict.Worse [ 230.51 ];
  Alcotest.check verdict "fail_ratio" Verdict.Worse
    (classify "fail_ratio" ~baseline:[ 0.0 ] ~current:[ 1e-4 ])

let outcome workload =
  {
    Outcome.workload;
    seed = 1;
    correct = true;
    attempted = 24_000;
    failed = 0;
    fingerprint = "committed=6000 gave_up=0";
    checks = [];
    end_to_end =
      [
        ("wall_tps", [ 6100.25; 6000.5; 5900.125; 6050.0 ]);
        ("verify_s", [ 0.91; 0.9; 0.93; 0.92 ]);
        ("setup_s", [ 0.035; 0.034; 0.036; 0.035 ]);
        ("peak_rss_mb", [ 210.5 ]);
        ("sim_tps", [ 229.79 ]);
        ("sim_p50_ms", [ 13.718 ]);
        ("sim_mean_ms", [ 32.749 ]);
        ("sim_p99_ms", [ 335.025 ]);
      ];
    raw = [ ("wall_tps", [ 5100.5; 5000.25 ]); ("verify_s", [ 1.1; 1.2 ]); ("setup_s", [ 0.04; 0.05 ]) ];
    per_layer = [ ("sim.events_per_commit", 40.3); ("obs.overhead", 1.12) ];
  }

let dump = { Outcome.seconds = 8; host_cores = 2; outcomes = [ outcome "faults-4"; outcome "churn-16" ] }

let round_trip () =
  let text = Json.to_string (Outcome.dump_to_json dump) in
  let back = Outcome.dump_of_json (Json.of_string text) in
  Alcotest.(check bool) "dump survives a JSON round trip" true (back = dump);
  Alcotest.check_raises "wrong schema" (Json.Parse_error "Outcome: expected schema hermes-perf/1") (fun () ->
      ignore (Outcome.dump_of_json (Json.Obj [ ("schema", Json.String "hermes-bench/3") ])))

(* A baseline doctored so that one exact metric, one wall-clock metric and
   the failure count each move, on one workload only. *)
let against () =
  let same = Verdict.compare_dumps ~baseline:dump ~current:dump in
  Alcotest.(check int) "a row per workload x metric" (2 * List.length Metric.reported) (List.length same);
  Alcotest.(check bool) "identical dumps: all same" true
    (List.for_all (fun (r : Verdict.row) -> r.Verdict.verdict = Verdict.Same) same);
  let doctor (o : Outcome.t) =
    if o.Outcome.workload <> "faults-4" then o
    else
      {
        o with
        Outcome.failed = 3;
        end_to_end =
          List.map
            (fun (k, xs) ->
              match k with
              | "wall_tps" -> (k, List.map (fun x -> x *. 0.7) xs)
              | "sim_p99_ms" -> (k, [ 167.5 ])
              | _ -> (k, xs))
            o.Outcome.end_to_end;
      }
  in
  let current = { dump with Outcome.outcomes = List.map doctor dump.Outcome.outcomes } in
  let rows = Verdict.compare_dumps ~baseline:dump ~current in
  let verdict_of w m =
    let row (r : Verdict.row) = r.Verdict.workload = w && r.Verdict.metric.Metric.name = m in
    (List.find row rows).Verdict.verdict
  in
  Alcotest.check verdict "wall_tps -30%" Verdict.Worse (verdict_of "faults-4" "wall_tps");
  Alcotest.check verdict "sim_p99_ms halved" Verdict.Better (verdict_of "faults-4" "sim_p99_ms");
  Alcotest.check verdict "failures appeared" Verdict.Worse (verdict_of "faults-4" "fail_ratio");
  Alcotest.check verdict "untouched workload" Verdict.Same (verdict_of "churn-16" "wall_tps");
  Alcotest.(check bool) "regressed" true (Verdict.regressed rows)

(* BENCHMARK.json repeats the catalogue; they must not drift apart. *)
let benchmark_json () =
  let j = Json.of_string (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) in
  let str = function Json.String s -> s | _ -> Alcotest.fail "expected a string" in
  let num = function
    | Json.Float f -> f
    | Json.Int i -> float_of_int i
    | _ -> Alcotest.fail "expected a number"
  in
  let list k = match Json.member k j with Json.List xs -> xs | _ -> Alcotest.fail ("expected a list: " ^ k) in
  let field k o = Json.member k o in
  Alcotest.(check (list (pair string string)))
    "workloads"
    (List.map (fun (w : Workloads.t) -> (w.Workloads.name, w.Workloads.why)) Workloads.all)
    (List.map (fun o -> (str (field "name" o), str (field "why" o))) (list "workloads"));
  Alcotest.(check (list (pair (pair string string) (pair string (float 0.0)))))
    "end_to_end"
    (List.map
       (fun (m : Metric.end_to_end) ->
         ((m.Metric.name, m.Metric.unit_), (Metric.better_to_string m.Metric.better, m.Metric.bound)))
       Metric.end_to_end)
    (List.map
       (fun o ->
         ((str (field "name" o), str (field "unit" o)), (str (field "better" o), num (field "bound" o))))
       (list "end_to_end"));
  Alcotest.(check (list (pair string (pair string string))))
    "per_layer"
    (List.map (fun (n, u, b) -> (n, (u, Metric.better_to_string b))) Metric.per_layer_metrics)
    (List.map
       (fun o -> (str (field "name" o), (str (field "unit" o), str (field "better" o))))
       (list "per_layer"))

let () =
  Alcotest.run "perfbench"
    [
      ("summary", [ Alcotest.test_case "quartiles match Python's" `Quick quartiles ]);
      ( "verdict",
        [
          Alcotest.test_case "relative bound" `Quick relative_bound;
          Alcotest.test_case "absolute floor" `Quick absolute_floor;
          Alcotest.test_case "exact metrics" `Quick exact;
        ] );
      ( "dump",
        [
          Alcotest.test_case "JSON round trip" `Quick round_trip;
          Alcotest.test_case "--against on a doctored dump" `Quick against;
        ] );
      ("catalogue", [ Alcotest.test_case "BENCHMARK.json agrees" `Quick benchmark_json ]);
    ]
