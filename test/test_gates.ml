(* CI's clean explore gates, with their counts pinned.

   Each case is one `hermes explore` invocation from the workflow's
   Explore, Reconfigure and Adversary smokes, rebuilt here the way the
   CLI builds its scenario from the flags. The workflow only checks that
   these exit 0 (no violation, space exhausted); the state, transition
   and terminal counts move with any change to a machine's transitions
   or to the explored space, so pinning them turns each gate into a
   schedule pin. The unilateral-abort gate is pinned in test_protocol.ml.

   The coordinator-crash gate (`--sites 2 --txns 1 --coord-crashes 1
   --inquiries 1 --retransmits 1 --uaborts 0 --alive-fires 0
   --commit-retries 0`: 411 537 states, 2 017 055 transitions, 85
   terminal states, no violation) takes about 15 s on a 2-core host, so
   only CI runs it. *)

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

let () =
  Alcotest.run "gates"
    [
      ( "explore",
        List.map (fun (name, scenario, counts) -> Alcotest.test_case name `Slow (check counts scenario)) gates
      );
    ]
