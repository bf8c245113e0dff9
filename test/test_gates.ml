(* CI's gates, pinned in tier-1: the explore gates with their counts,
   the E-table gates, and the Verify smokes' dumps and reports.

   Each explore case is one `hermes explore` invocation from the
   workflow's Explore, Reconfigure and Adversary smokes, rebuilt here the
   way the CLI builds its scenario from the flags. The workflow only
   checks their exit codes: 0 for a clean gate (no violation, space
   exhausted), 1 for a gate that must find a violation. The state,
   transition and terminal counts move with any change to a machine's
   transitions or to the explored space, so pinning them turns each gate
   into a schedule pin; a violation-finding gate also pins its violation
   count and the invariant its first counterexample breaks. The
   unilateral-abort gate is pinned in test_protocol.ml; every other CI
   explore gate is pinned here, the coordinator-crash gate (about 2.5 s
   on a 2-core host) included.

   The E-table gates read the tables `bench/main.exe --quick --jobs 2
   --domains 2` prints (the workflow's Bench smoke), cell by cell under
   each column's header, and E16 once more on 4 domains. E1-E12, which
   have no predicate to gate on, are pinned byte for byte instead. *)

open Hermes_protocol

(* The scenario `hermes explore` runs for these flags: every budget the
   CLI defaults to 0 stays 0, and [--uaborts 0 --alive-fires 0] turn the
   other two off. *)
let cli ?(certifier = Config.full) ?(commit_proto = Config.Two_pc) ?(sites = 2) ?(txns = 2)
    ?(txn_shards = 0) ?(lying_sites = []) ?(equivocate = false) ?(sn_drift = 0)
    ?(certificates = false) ?drift_bound ?(suspicion = 0) ?(quorum = Coordinator_sm.Dedup)
    ?(termination = true) ?(handover = true) budgets =
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
    quorum;
    budgets;
    termination;
    handover;
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
      (9_276, 30_616, 51) );
    ( "--sites 2 --txns 2 --txn-shards 1 --reconfigures 1",
      (fun () -> cli ~txn_shards:1 { none with Explore.reconfigures = 1 }),
      (61_394, 175_534, 396) );
    ( "--lying-sites 1 --certificates",
      (fun () -> cli ~lying_sites:[ 1 ] ~certificates:true none),
      (13_088, 61_312, 2) );
    ( "--txns 1 --equivocate --certificates --suspicion 5 --inquiries 1 --retransmits 1",
      (fun () ->
        cli ~txns:1 ~equivocate:true ~certificates:true ~suspicion:5
          { none with Explore.inquiries = 1; retransmits = 1 }),
      (5_064, 20_888, 4) );
    ( "-c no-extension --sn-drift 1000 --drift-bound 100 --commit-retries 2",
      (fun () ->
        cli ~certifier:Config.without_extension ~sn_drift:1000 ~drift_bound:100
          { none with Explore.commit_retries = 2 }),
      (25_344, 121_152, 4) );
    ( "--sites 2 --txns 1 --coord-crashes 1 --inquiries 1 --retransmits 1",
      (fun () -> cli ~txns:1 { none with Explore.coord_crashes = 1; inquiries = 1; retransmits = 1 }),
      (135_632, 668_963, 51) );
  ]

let check (states, transitions, terminals) scenario () =
  let st = Explore.run (scenario ()) in
  Alcotest.(check bool) "exhausted" false st.Explore.truncated;
  Alcotest.(check (list int))
    "states, transitions, terminals, violations" [ states; transitions; terminals; 0 ]
    [ st.Explore.states; st.Explore.transitions; st.Explore.terminals; st.Explore.n_violations ]

(* The gates CI runs expecting exit 1: each must find its violation, with
   these counts, and its first counterexample must break this invariant
   (the message's prefix up to the first colon, as `hermes explore
   --json` reports it). *)
let violation_gates =
  [
    ( "--sites 2 --txns 1 --dups 1 --quorum counted",
      (fun () -> cli ~txns:1 ~quorum:Coordinator_sm.Counted { none with Explore.dups = 1 }),
      (1_521, 5_054, 4, 32, "machine exception") );
    ( "--sites 2 --txns 1 --coord-crashes 1 --inquiries 1 --retransmits 1 --no-termination",
      (fun () ->
        cli ~txns:1 ~termination:false
          { none with Explore.coord_crashes = 1; inquiries = 1; retransmits = 1 }),
      (3_999, 14_308, 30, 32, "I5") );
    ( "--sites 2 --txns 1 --commit-proto paxos --replica-kills 2",
      (fun () -> cli ~txns:1 ~commit_proto:(Config.Paxos { f = 1 }) { none with Explore.replica_kills = 2 }),
      (42_420, 145_159, 480, 162, "I5") );
    ( "--sites 2 --txns 1 --commit-proto backup-tm --replica-kills 1",
      (fun () -> cli ~txns:1 ~commit_proto:Config.backup_tm { none with Explore.replica_kills = 1 }),
      (906, 2_236, 27, 14, "I5") );
    ( "--sites 2 --txns 2 --txn-shards 1 --reconfigures 1 --no-handover",
      (fun () -> cli ~txn_shards:1 ~handover:false { none with Explore.reconfigures = 1 }),
      (55_256, 157_302, 380, 120, "I6") );
    ( "--lying-sites 1",
      (fun () -> cli ~lying_sites:[ 1 ] none),
      (18_080, 86_784, 0, 3_200, "I2") );
    ("--txns 1 --equivocate", (fun () -> cli ~txns:1 ~equivocate:true none), (104, 244, 1, 1, "I4"));
    ( "-c no-extension --sn-drift 1000 --commit-retries 2",
      (fun () ->
        cli ~certifier:Config.without_extension ~sn_drift:1000 { none with Explore.commit_retries = 2 }),
      (59_904, 286_208, 24, 5_120, "I3") );
  ]

let check_violation (states, transitions, terminals, violations, invariant) scenario () =
  let st = Explore.run (scenario ()) in
  Alcotest.(check bool) "exhausted" false st.Explore.truncated;
  Alcotest.(check (list int))
    "states, transitions, terminals, violations" [ states; transitions; terminals; violations ]
    [ st.Explore.states; st.Explore.transitions; st.Explore.terminals; st.Explore.n_violations ];
  match st.Explore.violations with
  | (msg, trail) :: _ ->
      let prefix = match String.index_opt msg ':' with Some i -> String.sub msg 0 i | None -> msg in
      Alcotest.(check string) "first counterexample's invariant" invariant prefix;
      Alcotest.(check bool) "a non-empty schedule" true (trail <> [])
  | [] -> Alcotest.fail "no counterexample reported"



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

(* E19 gates the adversary suite end to end. Every undefended process
   adversary (lying, equivocation, sn drift) must show its damage (clean
   = no); every defended row and both gray rows must be clean with zero
   stuck runs. A gray site does no damage to correctness: the undefended
   gray row shows it as latency instead, its p95 at least 10x the
   adversary-free row's (1048.6 ms against 12.6 ms). The drift bound
   must actually refuse stale PREPAREs, the equivocation defense must
   detect forged decisions, and the gray-site suspicion row's in-doubt
   p99 must stay within twice the 90 ms suspicion timeout (timeout + one
   healthy-quorum round trip). *)
let e19 () =
  let rows = rows (quick "e19") in
  let p95 row = num row "p95 (ms)" in
  let calm = List.find (fun row -> cell row "adversary" = "none") rows in
  List.iter
    (fun row ->
      let gray = String.starts_with ~prefix:"gray" (cell row "adversary") in
      match cell row "defense" with
      | "off" when gray ->
          expect_clean row;
          expect row "gray latency not seen" (p95 row >= 10. *. p95 calm)
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
    rows

(* E1-E12 carry no predicate gate, so their bytes are pinned instead:
   each table as `hermes experiments --quick --jobs 2 --only eN` prints
   it. They read the CGM baseline (E5), the failure injector (E6-E8,
   E10-E12) and the LTM's latencies and deadlock policies (E10, E12).
   E9 is retired. *)
let table_md5s =
  [
    ("e1", "c071b67bdf460dfa42edac7f9d62961c");
    ("e2", "129850c5937d71425a7f88ae8a34e028");
    ("e3", "7ce3367e769d366a1f786230ac9787bd");
    ("e4", "4b8cc67f8e8dc1d4374fda2d418210e5");
    ("e5", "dbefd7f57ad3fb97c785a3364c79b247");
    ("e6", "5a44452a90358379e8bd46b21837e407");
    ("e7", "1fdd468a6101904837bdeadfc07f8cf4");
    ("e8", "d02e3f4cc932f4d12f3169075f33ea1c");
    ("e10", "e06914bc192a240f969c8e458114437d");
    ("e11", "411bc033bcb980bcbc7b5410d6238354");
    ("e12", "4ee6ac79014e32ec6566421471c26e27");
  ]

let md5 s = Digest.to_hex (Digest.string s)
let expect_md5 what expected s = Alcotest.(check string) (what ^ " md5") expected (md5 s)
let table_bytes name expected () = expect_md5 name expected (Table_fmt.to_string (quick name))

(* ------------------------------------------------------------------ *)
(* Verify smokes                                                       *)
(* ------------------------------------------------------------------ *)

module Config = Hermes_core.Config
module Driver = Hermes_workload.Driver
module Spec = Hermes_workload.Spec
module Network = Hermes_net.Network
module History = Hermes_history.History
module Report = Hermes_history.Report
module Correctness = Hermes_history.Correctness
module Serial_format = Hermes_history.Serial_format

(* The history `hermes run --sites S -n N [--failure F] [--drop D] [--dup
   P] [--jitter J] [--crashes C --reboot-delay R] [--crash-coordinator]
   [--commit-proto paxos] [--gray-sites G --gray-factor X] [--domains M]
   [--lying-sites L] [-c naive] [--open-loop RATE] [--mpl M]
   [--group-commit] --seed K` records, its setup built as the CLI builds
   it from those flags, every other flag at its default. *)
let cli_history ?(failure = 0.0) ?(drop = 0.0) ?(dup = 0.0) ?(jitter = 200) ?(crashes = 0)
    ?(reboot_delay = 0) ?(crash_coordinator = false) ?(commit_proto = Config.Two_pc) ?(gray_sites = [])
    ?(gray_factor = 20) ?(domains = 1) ?(lying_sites = []) ?(certifier = Config.full) ?open_loop
    ?(mpl = 4) ?(group_commit = false) ~sites ~n ~seed () =
  let certifier =
    {
      certifier with
      Config.commit_proto;
      adversary = { Config.no_adversary with Config.lying_sites };
      decision_certificates = false;
      max_sn_drift = None;
      suspicion_timeout = 0;
    }
  in
  let certifier =
    if group_commit then
      {
        certifier with
        Config.group_commit_window = Config.grouped.Config.group_commit_window;
        max_batch = Config.grouped.Config.max_batch;
      }
    else certifier
  in
  let arrival =
    match open_loop with
    | Some rate -> Spec.Open { rate; max_in_flight = mpl }
    | None -> Spec.Closed { mpl; think_time_mean = Spec.think_time Spec.default }
  in
  let setup =
    {
      Driver.default_setup with
      Driver.protocol = Driver.Two_pca certifier;
      failure = Hermes_ltm.Failure.prepared_rate failure;
      net =
        {
          Network.base_delay = 500;
          jitter;
          faults = { Network.drop; dup; gray_sites; gray_factor };
        };
      clock_of_site = (fun _ -> Hermes_kernel.Clock.make ~offset:0 ());
      seed;
      crash_schedule = List.init crashes (fun i -> (20_000 + (i * 30_000), i mod max 1 sites));
      reboot_delay;
      crash_coordinators = crash_coordinator;
      domains;
      spec = Spec.make ~n_sites:sites ~n_global:n ~arrival ~key_dist:(Spec.Zipf { theta = 0.6 }) ();
    }
  in
  (Driver.run setup).Driver.history

(* What `sed -n '/^committed projection:/,$p'` keeps of the output of
   `hermes run` or `hermes verify`: the report and its final newline. *)
let report h = Fmt.str "%a@." Report.pp (Report.analyze h)

let lines s = String.split_on_char '\n' s

(* `sed -e 'F{h;d}' -e 'AG'`: line F moves to just after line A (A > F,
   both numbered as in the input). *)
let move_line ~from ~after s =
  let l = Array.of_list (lines s) in
  let moved = l.(from - 1) in
  String.concat "\n"
    (List.concat
       [
         Array.to_list (Array.sub l 0 (from - 1));
         Array.to_list (Array.sub l from (after - from));
         [ moved ];
         Array.to_list (Array.sub l after (Array.length l - after));
       ])

(* `sed 'Ls/ OLD$/ NEW/'` *)
let replace_line_suffix ~line ~old ~by s =
  String.concat "\n"
    (List.mapi
       (fun k l ->
         if k = line - 1 && String.ends_with ~suffix:old l then String.sub l 0 (String.length l - String.length old) ^ by
         else l)
       (lines s))

(* The Verify smoke: the clean fault run's dump and report, and the dump
   with two local commits moved past reads of their incarnations'
   writes, which breaks rigorousness at sites a and d. *)
let verify_smoke () =
  let h = cli_history ~sites:4 ~n:2000 ~failure:0.2 ~drop:0.01 ~seed:3 () in
  let dump = Serial_format.to_string h in
  expect_md5 "h.trace" "a8cd752d4b4217f43c8219cbbe300188" dump;
  expect_md5 "h report" "1405ae60afc0ef8a3f90f6af9834dd64" (report h);
  let r = move_line ~from:20 ~after:2195 (move_line ~from:86 ~after:246 dump) in
  expect_md5 "r.trace" "a5f7b89363fe68af3ebf732e0ead49d3" r;
  expect_md5 "r report" "f068f8d4d4e409490aa4ee7258bcff8a" (report (Serial_format.of_string r))

(* The distorting run: the naive certifier under 30% unilateral aborts. *)
let verify_smoke_distorting () =
  let h = cli_history ~sites:4 ~n:2000 ~failure:0.3 ~certifier:Config.naive ~seed:3 () in
  expect_md5 "n report" "0d44f38329be813ab8254a6ead879b3e" (report h)

(* The 64-site smokes: a clean run, the same dump with one read's value
   made wrong, and a distorting naive run. *)
let verify_smoke_64 () =
  let h = cli_history ~sites:64 ~n:1600 ~seed:2 () in
  let dump = Serial_format.to_string h in
  expect_md5 "w.trace" "0b490a1b664b5ea4bd8392457312e2cd" dump;
  expect_md5 "w report" "4b70ed76645a7de0dddc1ade6f814b1f" (report h);
  let bad = replace_line_suffix ~line:417 ~old:" 102" ~by:" 1102" dump in
  Alcotest.(check string) "w-bad.trace line 417" "R L29:3 0 29 T3 22 L29:1.0@29 1102" (List.nth (lines bad) 416);
  expect_md5 "w-bad report" "230c833ac73cc652c7f0a8a9eb95678c" (report (Serial_format.of_string bad));
  let wn = cli_history ~sites:64 ~n:1600 ~failure:0.3 ~certifier:Config.naive ~seed:2 () in
  expect_md5 "wn.trace" "06e6406413f29796027529dba46bc6d0" (Serial_format.to_string wn);
  expect_md5 "wn report" "771d1c58c84799970e7a7a71df33b6b1" (report wn)

(* The other dumps CI pins: duplicates with a wide jitter, crashes of
   sites and their coordinators under Paxos Commit, a gray site, and the
   16-site run merged from 2 and from 4 domains (one dump for both). *)
let verify_smoke_duplicates () =
  let h = cli_history ~sites:4 ~n:2000 ~failure:0.2 ~drop:0.01 ~dup:0.05 ~jitter:5000 ~seed:3 () in
  expect_md5 "j.trace" "ccf1e17099ae4d5e51547ef4d59b1e92" (Serial_format.to_string h)

let verify_smoke_crashes () =
  let h =
    cli_history ~sites:4 ~n:2000 ~failure:0.2 ~drop:0.01 ~crashes:40 ~reboot_delay:20_000
      ~crash_coordinator:true ~commit_proto:(Config.Paxos { f = 1 }) ~seed:3 ()
  in
  expect_md5 "c.trace" "7f159f9c055a35215dfb3c182f70291a" (Serial_format.to_string h)

let verify_smoke_gray () =
  let h = cli_history ~sites:4 ~n:2000 ~gray_sites:[ 1 ] ~gray_factor:4 ~seed:3 () in
  expect_md5 "g.trace" "4f814fd1db1afa6e2aa218ef74e01157" (Serial_format.to_string h)

(* The Adversary smoke's lying run: the agent at site b votes READY
   without preparing and drops its local commit, so 37 of the 90 globals
   commit everywhere but at b. C(H) leaves torn globals out, so every
   serializability line reads clean; the verdict still fails, and the
   report says why. *)
let verify_smoke_lying () =
  let h = cli_history ~sites:4 ~n:90 ~lying_sites:[ 1 ] ~seed:1 () in
  expect_md5 "l.trace" "22f1caf6b1ef3da337544884661340c8" (Serial_format.to_string h);
  let rep = Report.analyze h in
  Alcotest.(check bool) "Report.ok" false (Report.ok rep);
  let torn = rep.Report.verdict.Correctness.torn in
  Alcotest.(check int) "torn globals" 37 (List.length torn);
  Alcotest.(check string) "first torn global" "T1" (Hermes_kernel.Txn.show (List.hd torn));
  Alcotest.(check bool) "the torn line" true
    (List.mem "atomic commitment: 37 TORN globals (first: T1)" (lines (report h)))

let verify_smoke_merge domains () =
  let h = cli_history ~sites:16 ~n:800 ~domains ~seed:2 () in
  expect_md5 (Fmt.str "m%d.trace" domains) "714449c82741fb26442a560f909033c8" (Serial_format.to_string h)

(* ------------------------------------------------------------------ *)
(* One local commit per subtransaction                                  *)
(* ------------------------------------------------------------------ *)

module Op = Hermes_history.Op

(* The (gid, site) pairs of [h] that commit locally more than once. *)
let committed_twice h =
  let seen = Hashtbl.create 4096 in
  History.fold
    (fun twice op ->
      match op with
      | Op.Local_commit { Hermes_kernel.Txn.Incarnation.txn; site; _ }
        when Hermes_kernel.Txn.is_global txn ->
          if Hashtbl.mem seen (txn, site) then (txn, site) :: twice
          else begin
            Hashtbl.add seen (txn, site) ();
            twice
          end
      | _ -> twice)
    [] h

(* A run that used to commit a subtransaction twice, or to die on a
   stale commit: its verdict must be ok, and no subtransaction may
   commit twice at a site. *)
let commits_once history () =
  let h = history () in
  Alcotest.(check (list string))
    "subtransactions committed twice at a site" []
    (List.map
       (fun (txn, site) -> Fmt.str "%a at %a" Hermes_kernel.Txn.pp txn Hermes_kernel.Site.pp site)
       (committed_twice h));
  Alcotest.(check bool) "Report.ok" true (Report.ok (Report.analyze h))

(* `--sites 4 -n 500 --open-loop 150 --mpl 48 --group-commit [--failure
   F] --seed K` *)
let open_gc ?failure seed () =
  cli_history ~sites:4 ~n:500 ~open_loop:150. ~mpl:48 ~group_commit:true ?failure ~seed ()

let once =
  [
    (* An alive check that fires between a local commit and its callback
       finds the subtransaction dead; it must not resubmit it. *)
    ("alive check during a local commit: group commit, 5% aborts, seed 1", open_gc ~failure:0.05 1);
    ("alive check during a local commit: group commit, seed 8", open_gc 8);
    ("alive check during a local commit: group commit, seed 16", open_gc 16);
    ( "alive check during a local commit: a gray site, seed 4",
      fun () -> cli_history ~sites:4 ~n:500 ~gray_sites:[ 1 ] ~gray_factor:8 ~seed:4 () );
    (* A commit withheld by group commit for an incarnation that a
       unilateral abort and a resubmission replaced must be dropped. *)
    ("stale incarnation's commit dropped: 5% aborts, seed 10", open_gc ~failure:0.05 10);
  ]

let () =
  Alcotest.run "gates"
    [
      ( "explore",
        List.map (fun (name, scenario, counts) -> Alcotest.test_case name `Slow (check counts scenario)) gates
      );
      (* Alcotest pads every group to the longest group name and cuts test
         names to fit its 80 columns, so a group name longer than "explore"
         would shorten the names every other group prints. *)
      ( "finds",
        List.map
          (fun (name, scenario, pin) -> Alcotest.test_case name `Slow (check_violation pin scenario))
          violation_gates );
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
        ]
        @ List.map
            (fun (name, expected) ->
              Alcotest.test_case (name ^ " renders byte for byte") `Slow (table_bytes name expected))
            table_md5s );
      ("once", List.map (fun (name, h) -> Alcotest.test_case name `Slow (commits_once h)) once);
      ( "verify",
        [
          Alcotest.test_case "fault run and its rigorousness-breaking edit" `Slow verify_smoke;
          Alcotest.test_case "distorting naive run" `Slow verify_smoke_distorting;
          Alcotest.test_case "64 sites: clean, wrong value, distorting" `Slow verify_smoke_64;
          Alcotest.test_case "duplicates and a wide jitter" `Slow verify_smoke_duplicates;
          Alcotest.test_case "site and coordinator crashes under Paxos Commit" `Slow verify_smoke_crashes;
          Alcotest.test_case "a gray site" `Slow verify_smoke_gray;
          Alcotest.test_case "16 sites merged from 2 domains" `Slow (verify_smoke_merge 2);
          Alcotest.test_case "16 sites merged from 4 domains" `Slow (verify_smoke_merge 4);
          Alcotest.test_case "a lying site tears commits" `Slow verify_smoke_lying;
        ] );
    ]
