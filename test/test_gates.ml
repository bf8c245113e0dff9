(* CI's gates, pinned in tier-1: the clean explore gates with their
   counts, and the E-table gates.

   Each explore case is one `hermes explore` invocation from the
   workflow's Explore, Reconfigure and Adversary smokes, rebuilt here the
   way the CLI builds its scenario from the flags. The workflow only
   checks that these exit 0 (no violation, space exhausted); the state,
   transition and terminal counts move with any change to a machine's
   transitions or to the explored space, so pinning them turns each gate
   into a schedule pin. The unilateral-abort gate is pinned in
   test_protocol.ml.

   The coordinator-crash gate (`--sites 2 --txns 1 --coord-crashes 1
   --inquiries 1 --retransmits 1 --uaborts 0 --alive-fires 0
   --commit-retries 0`: 411 537 states, 2 017 055 transitions, 85
   terminal states, no violation) takes about 15 s on a 2-core host, so
   only CI runs it.

   The E-table gates read the tables `bench/main.exe --quick --jobs 2
   --domains 2` prints (the workflow's Bench smoke), cell by cell under
   each column's header, and E16 once more on 4 domains. *)

open Hermes_protocol

(* The scenario `hermes explore` runs for these flags: every budget the
   CLI defaults to 0 stays 0, and [--uaborts 0 --alive-fires 0] turn the
   other two off. *)
let cli ?(certifier = Config.full) ?(commit_proto = Config.Two_pc) ?(sites = 2) ?(txns = 2)
    ?(txn_shards = 0) ?(lying_sites = []) ?(equivocate = false) ?(sn_drift = 0)
    ?(certificates = false) ?drift_bound ?(suspicion = 0) budgets =
  {
    Explore.n_sites = sites;
    n_txns = txns;
    config =
      {
        certifier with
        Config.adversary = { Config.lying_sites; equivocate; sn_drift };
        decision_certificates = certificates;
        max_sn_drift = drift_bound;
        suspicion_timeout = suspicion;
        bind_data = false;
        commit_proto;
      };
    quorum = Coordinator_sm.Dedup;
    budgets;
    termination = true;
    handover = true;
    txn_shards;
    max_states = 2_000_000;
  }

let none = Explore.no_faults

let gates =
  [
    ( "--sites 2 --txns 2 --commit-retries 2",
      (fun () -> cli { none with Explore.commit_retries = 2 }),
      (68_160, 318_592, 44) );
    ( "--sites 2 --txns 1 --commit-proto paxos --replica-kills 1",
      (fun () -> cli ~txns:1 ~commit_proto:(Config.Paxos { f = 1 }) { none with Explore.replica_kills = 1 }),
      (12_780, 40_600, 96) );
    ( "--sites 2 --txns 2 --txn-shards 1 --reconfigures 1",
      (fun () -> cli ~txn_shards:1 { none with Explore.reconfigures = 1 }),
      (62_748, 178_326, 438) );
    ( "--lying-sites 1 --certificates",
      (fun () -> cli ~lying_sites:[ 1 ] ~certificates:true none),
      (13_088, 61_312, 2) );
    ( "--txns 1 --equivocate --certificates --suspicion 5 --inquiries 1 --retransmits 1",
      (fun () ->
        cli ~txns:1 ~equivocate:true ~certificates:true ~suspicion:5
          { none with Explore.inquiries = 1; retransmits = 1 }),
      (6_586, 27_609, 4) );
    ( "-c no-extension --sn-drift 1000 --drift-bound 100 --commit-retries 2",
      (fun () ->
        cli ~certifier:Config.without_extension ~sn_drift:1000 ~drift_bound:100
          { none with Explore.commit_retries = 2 }),
      (25_344, 121_152, 4) );
  ]

let check (states, transitions, terminals) scenario () =
  let st = Explore.run (scenario ()) in
  Alcotest.(check bool) "exhausted" false st.Explore.truncated;
  Alcotest.(check (list int))
    "states, transitions, terminals, violations" [ states; transitions; terminals; 0 ]
    [ st.Explore.states; st.Explore.transitions; st.Explore.terminals; st.Explore.n_violations ]



(* ------------------------------------------------------------------ *)
(* E-table gates                                                       *)
(* ------------------------------------------------------------------ *)

module Experiment = Hermes_harness.Experiment
module Table_fmt = Hermes_harness.Table_fmt

(* One table at the Bench smoke's sizes: a third of each default seed
   count, seed sweeps on 2 domains, E16 on 1 and [domains] domains. *)
let quick ?(domains = 2) name =
  List.assoc name (Experiment.tables ~seeds_of:(fun n -> max 1 (n / 3)) ~jobs:2 ~domains ()) ()

(* The rows of a table, each as its cells under their headers. *)
let rows (t : Table_fmt.t) =
  Alcotest.(check bool) (t.Table_fmt.title ^ " has rows") true (t.Table_fmt.rows <> []);
  List.map (List.combine t.Table_fmt.headers) t.Table_fmt.rows

let cell row header =
  match List.assoc_opt header row with Some c -> c | None -> Alcotest.failf "no column %S" header

let num row header = float_of_string (cell row header)

(* A "k/n" cell with k = 0. *)
let none_of row header = Scanf.sscanf (cell row header) "%d/%d" (fun k _ -> k = 0)

let expect row what ok =
  if not ok then Alcotest.failf "%s in row [%s]" what (String.concat " | " (List.map snd row))

(* A live, clean cell: no stuck run, and clean = yes. *)
let expect_clean row =
  expect row "stuck runs" (none_of row "stuck runs");
  expect row "unclean" (cell row "clean" = "yes")

(* E13 gates fault injection: every full-2CM row of the unreliable
   network sweep must report zero distortion, CG-cycle and stuck runs. *)
let e13 () =
  let full = List.filter (fun row -> cell row "certifier" = "2CM (full)") (rows (quick "e13")) in
  Alcotest.(check bool) "full-2CM rows" true (full <> []);
  List.iter
    (fun row ->
      List.iter (fun col -> expect row (col ^ " nonzero") (none_of row col))
        [ "distortion runs"; "CG-cycle runs"; "stuck runs" ])
    full

(* E14 gates coordinator durability: every cell of the coordinator-crash
   sweep must be live (no stuck runs) and clean. *)
let e14 () = List.iter expect_clean (rows (quick "e14"))

(* E15 gates the group-commit hot path: every offered-load row must
   report a non-zero saturation throughput and stay clean, and the
   batching rows must pay strictly fewer forces per commit than the
   unbatched rows at the same offered load. *)
let e15 () =
  let rows = rows (quick "e15") in
  List.iter
    (fun row ->
      expect row "zero throughput" (num row "commits/s" > 0.);
      expect_clean row)
    rows;
  let unbatched rate =
    List.find (fun row -> cell row "group commit" = "off" && cell row "offered (txn/s)" = rate) rows
  in
  List.iter
    (fun row ->
      if cell row "group commit" = "on" then
        expect row "batching did not cut forces"
          (num row "forces/commit" < num (unbatched (cell row "offered (txn/s)")) "forces/commit"))
    rows

(* E16 gates the multicore engine: committed counts must be nonzero and
   constant down each sites block (the windowed schedule is
   domain-count-invariant) and every cell must be clean with zero stuck
   runs, on 2 domains and on 4. Wall-clock speedup is NOT asserted — it
   depends on the host's core count; correctness must hold anywhere. *)
let e16 domains () =
  let rows = rows (quick ~domains "e16") in
  List.iter
    (fun row ->
      expect row "VIOLATION" (cell row "clean" = "ok");
      expect row "stuck runs" (none_of row "stuck runs");
      expect row "nothing committed" (num row "committed" > 0.);
      List.iter
        (fun other ->
          if cell other "sites" = cell row "sites" then
            expect row "committed varies with domains" (cell other "committed" = cell row "committed"))
        rows)
    rows

(* E17 gates non-blocking commit: every staged stranding must resolve (no
   participant blocks forever on a crashed coordinator) and every cell
   must stay clean, for 2PC, backup-tm and Paxos alike — the protocols
   differ in HOW LONG the in-doubt window is, never in whether it
   terminates. *)
let e17 () =
  let rows = rows (quick "e17") in
  List.iter
    (fun row ->
      expect row "unclean" (cell row "clean" = "yes");
      expect row "unresolved strandings" (Scanf.sscanf (cell row "resolved") "%d/%d" ( = )))
    rows;
  Alcotest.(check (list string))
    "protocols" [ "2pc"; "backup-tm"; "paxos f=1" ]
    (List.sort_uniq String.compare (List.map (fun row -> cell row "protocol") rows))

(* E18 gates elastic placement: static and churn cells alike must commit
   their full quota clean with zero stuck runs (churn may cost latency
   and retries, never transactions), and at least one churn cell must
   actually exercise the wrong-epoch refusal path. *)
let e18 () =
  let rows = rows (quick "e18") in
  List.iter
    (fun row ->
      expect_clean row;
      let quota = 10 * int_of_string (cell row "sites") in
      expect row "lost transactions to churn" (num row "commits" = float_of_int quota))
    rows;
  Alcotest.(check bool)
    "a churn cell met the wrong-epoch path" true
    (List.exists (fun row -> cell row "churn" <> "static" && num row "wrong-epoch" > 0.) rows)

(* E19 gates the adversary suite end to end: every undefended adversary
   row must show its damage (clean = no) and every defended row must be
   clean with zero stuck runs; the drift bound must actually refuse stale
   PREPAREs, the equivocation defense must detect forged decisions, and
   the gray-site suspicion row's in-doubt p99 must stay within twice the
   90 ms suspicion timeout (timeout + one healthy-quorum round trip). *)
let e19 () =
  List.iter
    (fun row ->
      match cell row "defense" with
      | "off" -> expect row "undefended adversary shows no damage" (cell row "clean" = "no")
      | defense -> (
          expect_clean row;
          match defense with
          | "drift bound" -> expect row "drift bound never refused" (num row "drift refusals" > 0.)
          | "certs+suspicion" ->
              expect row "equivocation never detected" (num row "equivocations" > 0.);
              expect row "suspicion never fired" (num row "suspicions" > 0.)
          | "suspicion" ->
              let p99 = num row "in-doubt p99 (ms)" in
              expect row "gray in-doubt p99 outside the suspicion bound" (p99 > 0. && p99 <= 180.)
          | _ -> ()))
    (rows (quick "e19"))

let () =
  Alcotest.run "gates"
    [
      ( "explore",
        List.map (fun (name, scenario, counts) -> Alcotest.test_case name `Slow (check counts scenario)) gates
      );
      ( "tables",
        [
          Alcotest.test_case "e13 full 2CM masks drops, duplicates and reboots" `Slow e13;
          Alcotest.test_case "e14 coordinator crashes stay live and clean" `Slow e14;
          Alcotest.test_case "e15 batching cuts forces, stays clean" `Slow e15;
          Alcotest.test_case "e16 on 2 domains: invariant and clean" `Slow (e16 2);
          Alcotest.test_case "e16 on 4 domains: invariant and clean" `Slow (e16 4);
          Alcotest.test_case "e17 every stranding resolves clean" `Slow e17;
          Alcotest.test_case "e18 churn costs retries, never commits" `Slow e18;
          Alcotest.test_case "e19 undefended damage, defended clean" `Slow e19;
        ] );
    ]
