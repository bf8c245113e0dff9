(* Tests for hermes.harness: the protocol-level scenario replays are the
   paper's claims as executable regressions — each anomaly must appear
   under the naive agent and disappear under the certification step the
   paper assigns to it. *)

module Scenario = Hermes_harness.Scenario
module Experiment = Hermes_harness.Experiment
module Table_fmt = Hermes_harness.Table_fmt
module Config = Hermes_core.Config
module Coordinator = Hermes_core.Coordinator
module Report = Hermes_history.Report
module Correctness = Hermes_history.Correctness
module View = Hermes_history.View

let commit_only = { Config.naive with Config.commit_certification = true }
let prepare_only = { Config.naive with Config.prepare_certification = true; bind_data = true }

let verdict (r : Scenario.run) = r.Scenario.report.Report.verdict
let is_not_vsr r = (verdict r).Correctness.view = View.Not_serializable
let has_cg_cycle r = (verdict r).Correctness.cg_cycle <> None
let all_finished (r : Scenario.run) = List.for_all (fun (_, o) -> o <> None) r.Scenario.outcomes

let committed label (r : Scenario.run) =
  match List.assoc_opt label r.Scenario.outcomes with
  | Some (Some Coordinator.Committed) -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* H1                                                                  *)
(* ------------------------------------------------------------------ *)

let test_h1_naive_distorts () =
  let r = Scenario.h1 ~certifier:Config.naive () in
  Alcotest.(check bool) "T1 committed" true (committed "T1" r);
  Alcotest.(check bool) "T2 committed" true (committed "T2" r);
  Alcotest.(check bool) "distortion" true ((verdict r).Correctness.distortions <> []);
  Alcotest.(check bool) "not VSR" true (is_not_vsr r)

let test_h1_prepare_cert_prevents () =
  let r = Scenario.h1 ~certifier:prepare_only () in
  Alcotest.(check bool) "T1 committed" true (committed "T1" r);
  Alcotest.(check bool) "no distortion" true ((verdict r).Correctness.distortions = []);
  Alcotest.(check bool) "serializable" true (Correctness.serializable (verdict r))

let test_h1_full_prevents () =
  let r = Scenario.h1 ~certifier:Config.full () in
  Alcotest.(check bool) "T1 committed" true (committed "T1" r);
  Alcotest.(check bool) "serializable" true (Correctness.serializable (verdict r))

let test_h1_commit_only_livelocks () =
  (* The liveness finding: without the Correctness Invariant at prepare
     time, recovery deadlocks against the conflicting prepared T2. T1 and
     T2 committed globally but never at every site, so both are torn and
     the verdict fails. *)
  List.iter
    (fun (name, certifier) ->
      let r = Scenario.h1 ~certifier () in
      Alcotest.(check bool) (name ^ ": stuck transactions") false (all_finished r);
      Alcotest.(check (list string)) (name ^ ": torn") [ "T1"; "T2" ]
        (List.map Hermes_kernel.Txn.show (verdict r).Correctness.torn);
      Alcotest.(check bool) (name ^ ": Report.ok") false (Report.ok r.Scenario.report))
    [ ("commit only", commit_only); ("no prepare cert", Config.without_prepare_certification) ]

(* ------------------------------------------------------------------ *)
(* H2                                                                  *)
(* ------------------------------------------------------------------ *)

let test_h2_naive_distorts () =
  let r = Scenario.h2 ~certifier:Config.naive () in
  Alcotest.(check bool) "CG cycle" true (has_cg_cycle r);
  Alcotest.(check bool) "not VSR" true (is_not_vsr r);
  (* ... and it is a *local* view distortion: no global one. *)
  Alcotest.(check bool) "no global distortion" true ((verdict r).Correctness.distortions = [])

let test_h2_commit_cert_prevents () =
  let r = Scenario.h2 ~certifier:commit_only () in
  Alcotest.(check bool) "T1 committed" true (committed "T1" r);
  Alcotest.(check bool) "T3 committed" true (committed "T3" r);
  Alcotest.(check bool) "CG acyclic" false (has_cg_cycle r);
  Alcotest.(check bool) "serializable" true (Correctness.serializable (verdict r))

let test_h2_full_prevents () =
  let r = Scenario.h2 ~certifier:Config.full () in
  Alcotest.(check bool) "serializable" true (Correctness.serializable (verdict r))

(* ------------------------------------------------------------------ *)
(* H3                                                                  *)
(* ------------------------------------------------------------------ *)

let test_h3_naive_distorts () =
  let r = Scenario.h3 ~certifier:Config.naive () in
  Alcotest.(check bool) "CG cycle" true (has_cg_cycle r);
  Alcotest.(check bool) "not VSR" true (is_not_vsr r)

let test_h3_commit_cert_prevents () =
  let r = Scenario.h3 ~certifier:commit_only () in
  Alcotest.(check bool) "T5 committed" true (committed "T5" r);
  Alcotest.(check bool) "T6 committed" true (committed "T6" r);
  Alcotest.(check bool) "serializable" true (Correctness.serializable (verdict r))

let test_h3_full_prevents () =
  let r = Scenario.h3 ~certifier:Config.full () in
  Alcotest.(check bool) "serializable" true (Correctness.serializable (verdict r))

(* ------------------------------------------------------------------ *)
(* Overtaking (§5.3)                                                   *)
(* ------------------------------------------------------------------ *)

let test_overtake_extension () =
  (* Find a racing seed under no-extension; the race must produce a CG
     cycle there, and the extension must turn it into a refusal. *)
  let no_ext = { Config.full with Config.certification_extension = false } in
  let rec hunt seed =
    if seed > 500 then None
    else
      let r = Scenario.overtake ~certifier:no_ext ~jitter:8_000 ~seed () in
      if r.Scenario.overtaken then Some (seed, r) else hunt (seed + 1)
  in
  match hunt 1 with
  | None -> Alcotest.fail "no race in 500 seeds"
  | Some (seed, r) ->
      Alcotest.(check bool) "race causes CG cycle without extension" true
        ((verdict r.Scenario.o_run).Correctness.cg_cycle <> None);
      let f = Scenario.overtake ~certifier:Config.full ~jitter:8_000 ~seed () in
      Alcotest.(check bool) "extension refuses" true (f.Scenario.extension_refusals > 0);
      Alcotest.(check bool) "no cycle with extension" true
        ((verdict f.Scenario.o_run).Correctness.cg_cycle = None)

let test_overtake_none_without_jitter () =
  for seed = 1 to 50 do
    let r = Scenario.overtake ~certifier:Config.naive ~jitter:0 ~seed () in
    Alcotest.(check bool) "no race without jitter" false r.Scenario.overtaken
  done

(* ------------------------------------------------------------------ *)
(* Table rendering                                                     *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let t =
    Table_fmt.make ~title:"demo" ~headers:[ "a"; "bb" ] ~notes:[ "note" ]
      [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let s = Table_fmt.to_string t in
  Alcotest.(check bool) "title" true (Astring.String.is_infix ~affix:"== demo ==" s |> fun _ -> String.length s > 0);
  (* All rendered rows have equal width. *)
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> String.length l > 0 && l.[0] = '|') in
  let widths = List.map String.length lines in
  Alcotest.(check bool) "aligned" true (List.sort_uniq Int.compare widths |> List.length = 1)

let test_table_cells () =
  Alcotest.(check string) "pct" "12.5%" (Table_fmt.pct 0.125);
  Alcotest.(check string) "f1" "3.1" (Table_fmt.f1 3.14);
  Alcotest.(check string) "bool" "yes" (Table_fmt.b true)

(* ------------------------------------------------------------------ *)
(* Experiments (shape checks)                                          *)
(* ------------------------------------------------------------------ *)

let test_e1_shape () =
  let t = List.assoc "e1" (Experiment.tables ~seeds_of:Fun.id ()) () in
  let s = Table_fmt.to_string t in
  Alcotest.(check bool) "has naive row" true
    (List.exists (fun l -> String.length l > 0) (String.split_on_char '\n' s));
  (* The key assertions: naive row says NOT VSR, full row says VSR. *)
  let lines = String.split_on_char '\n' s in
  let find sub = List.exists (fun l -> Astring.String.is_infix ~affix:sub l) lines in
  ignore (find "x");
  Alcotest.(check bool) "mentions NOT VSR" true
    (List.exists
       (fun l ->
         Astring.String.is_infix ~affix:"naive" l && Astring.String.is_infix ~affix:"NOT VSR" l)
       lines);
  Alcotest.(check bool) "full certifier clean" true
    (List.exists
       (fun l ->
         Astring.String.is_infix ~affix:"full 2CM" l
         && (not (Astring.String.is_infix ~affix:"NOT VSR" l))
         && Astring.String.is_infix ~affix:"VSR" l)
       lines)

(* ------------------------------------------------------------------ *)
(* Domain pool                                                         *)
(* ------------------------------------------------------------------ *)

let test_pool_map_order () =
  let xs = List.init 37 Fun.id in
  Alcotest.(check (list int)) "order preserved" (List.map (fun x -> x * x) xs)
    (Hermes_harness.Pool.map ~jobs:4 (fun x -> x * x) xs);
  Alcotest.(check (list int)) "jobs=1 degenerate" [ 2; 4 ]
    (Hermes_harness.Pool.map ~jobs:1 (fun x -> 2 * x) [ 1; 2 ])

let test_pool_map_exception () =
  Alcotest.check_raises "worker exception propagates" (Failure "boom") (fun () ->
      ignore (Hermes_harness.Pool.map ~jobs:3 (fun x -> if x = 5 then failwith "boom" else x) (List.init 10 Fun.id)))

(* After a worker records an exception the dispenser must stop handing
   out items. Item 0 fails immediately; every other item takes ~1ms, so
   without the early-stop check the surviving worker would grind through
   all 64 items before the join, and with it the queue is abandoned
   after at most the items already in flight. *)
let test_pool_map_early_stop () =
  let touched = Array.make 64 false in
  (try
     ignore
       (Hermes_harness.Pool.map ~jobs:2
          (fun x ->
            touched.(x) <- true;
            if x = 0 then failwith "early";
            Unix.sleepf 0.001;
            x)
          (List.init 64 Fun.id))
   with Failure _ -> ());
  let computed = Array.fold_left (fun acc t -> if t then acc + 1 else acc) 0 touched in
  Alcotest.(check bool)
    (Fmt.str "dispensing stopped early (computed %d/64)" computed)
    true (computed < 64)

(* The acceptance criterion of the parallel runner: fanning a seed sweep
   over domains changes neither the table text nor the metrics dump —
   for E8, E18 (moves and churn over 4 to 64 sites) and E19 (the
   adversaries). *)
let test_parallel_byte_identical () =
  let run name jobs =
    let metrics = Hermes_obs.Registry.create () in
    let t = List.assoc name (Experiment.tables ~seeds_of:(fun _ -> 2) ~jobs ~metrics ()) () in
    (Table_fmt.to_string t, Hermes_obs.Registry.to_json metrics)
  in
  List.iter
    (fun name ->
      let table1, metrics1 = run name 1 and table2, metrics2 = run name 2 in
      Alcotest.(check string) (name ^ " tables identical") table1 table2;
      Alcotest.(check string) (name ^ " metrics identical") metrics1 metrics2)
    [ "e8"; "e18"; "e19" ]

let () =
  Alcotest.run "harness"
    [
      ( "h1",
        [
          Alcotest.test_case "naive distorts" `Quick test_h1_naive_distorts;
          Alcotest.test_case "prepare cert prevents" `Quick test_h1_prepare_cert_prevents;
          Alcotest.test_case "full prevents" `Quick test_h1_full_prevents;
          Alcotest.test_case "commit-only livelocks" `Quick test_h1_commit_only_livelocks;
        ] );
      ( "h2",
        [
          Alcotest.test_case "naive distorts" `Quick test_h2_naive_distorts;
          Alcotest.test_case "commit cert prevents" `Quick test_h2_commit_cert_prevents;
          Alcotest.test_case "full prevents" `Quick test_h2_full_prevents;
        ] );
      ( "h3",
        [
          Alcotest.test_case "naive distorts" `Quick test_h3_naive_distorts;
          Alcotest.test_case "commit cert prevents" `Quick test_h3_commit_cert_prevents;
          Alcotest.test_case "full prevents" `Quick test_h3_full_prevents;
        ] );
      ( "overtake",
        [
          Alcotest.test_case "extension vs race" `Slow test_overtake_extension;
          Alcotest.test_case "no race without jitter" `Quick test_overtake_none_without_jitter;
        ] );
      ( "tables",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
      ( "experiments", [ Alcotest.test_case "E1 shape" `Slow test_e1_shape ] );
      ( "pool",
        [
          Alcotest.test_case "ordered map" `Quick test_pool_map_order;
          Alcotest.test_case "exception propagation" `Quick test_pool_map_exception;
          Alcotest.test_case "early stop on failure" `Quick test_pool_map_early_stop;
          Alcotest.test_case "parallel run byte-identical" `Slow test_parallel_byte_identical;
        ] );
    ]
