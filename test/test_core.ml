(* Integration tests for hermes.core: the 2PC Agent Certifier end to end.

   Each test assembles a small HMDBS inside the discrete-event engine,
   runs transactions through the DTM, then verifies the recorded history
   with the independent theory checkers. *)

open Hermes_kernel
module Engine = Hermes_sim.Engine
module Ltm = Hermes_ltm.Ltm
module Failure = Hermes_ltm.Failure
module Trace = Hermes_ltm.Trace
module Config = Hermes_core.Config
module Program = Hermes_core.Program
module Alive_table = Hermes_protocol.Alive_table
module Agent_sm = Hermes_protocol.Agent_sm
module Agent_log = Hermes_protocol.Agent_log
module Coordinator_log = Hermes_protocol.Coordinator_log
module Coordinator = Hermes_core.Coordinator
module Dtm = Hermes_core.Dtm
module Report = Hermes_history.Report
module Correctness = Hermes_history.Correctness
module History = Hermes_history.History
module Committed = Hermes_history.Committed
module Anomaly = Hermes_history.Anomaly
module Rigorous = Hermes_history.Rigorous
module Op = Hermes_history.Op

let a = Site.of_int 0
let b = Site.of_int 1

type world = { engine : Engine.t; dtm : Dtm.t }

let make_world ?(n_sites = 2) ?(certifier = Config.full) ?(site_spec = fun _ -> Dtm.default_site_spec)
    ?(seed = 42) ?(crash_coordinators = false) ?obs () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed in
  let dtm =
    Dtm.create ~engines:[| engine |] ~rng ~net_config:Hermes_net.Network.default_config ~certifier
      ?obs ~crash_coordinators ~site_specs:(Array.init n_sites site_spec) ()
  in
  { engine; dtm }

(* Standard initial data: table "X" keys 0..9 value 100 at every site. *)
let load_standard w =
  List.iter
    (fun site -> List.iter (fun k -> Dtm.load w.dtm site ~table:"X" ~key:k ~value:100) (List.init 10 Fun.id))
    (Dtm.site_ids w.dtm)

let select site keys = (site, Command.Select { table = "X"; keys })
let update site key delta = (site, Command.Update { table = "X"; key; delta })

let run_to_completion w = Engine.run w.engine

(* ------------------------------------------------------------------ *)
(* Happy path                                                          *)
(* ------------------------------------------------------------------ *)

let test_single_global_commit () =
  let w = make_world () in
  load_standard w;
  let outcome = ref None in
  ignore
    (Dtm.submit w.dtm
       (Program.make [ update a 0 10; update b 0 (-10); select a [ 0 ] ])
       ~on_done:(fun o -> outcome := Some o));
  run_to_completion w;
  (match !outcome with
  | Some Coordinator.Committed -> ()
  | Some (Coordinator.Aborted r) -> Alcotest.failf "aborted: %a" Coordinator.pp_reason r
  | None -> Alcotest.fail "never finished");
  (* Effects applied. *)
  let va = Hermes_store.Database.read (Dtm.database w.dtm a) ~table:"X" ~key:0 in
  let vb = Hermes_store.Database.read (Dtm.database w.dtm b) ~table:"X" ~key:0 in
  Alcotest.(check int) "a updated" 110 (Hermes_store.Row.value (Option.get va));
  Alcotest.(check int) "b updated" 90 (Hermes_store.Row.value (Option.get vb));
  (* History clean and complete. *)
  let h = Dtm.history w.dtm in
  let t1 = Txn.global 1 in
  Alcotest.(check bool) "complete" true (History.is_complete h t1);
  let rep = Report.analyze h in
  Alcotest.(check bool) "report ok" true (Report.ok rep);
  (* The trace's final values agree with the stores themselves. *)
  List.iter
    (fun (item, v) ->
      let site = Item.site item in
      match Hermes_store.Database.read (Dtm.database w.dtm site) ~table:(Item.table item) ~key:(Item.key item) with
      | Some row -> Alcotest.(check int) (Fmt.str "final %a" Item.pp item) (Hermes_store.Row.value row) v
      | None -> Alcotest.failf "item %a missing from store" Item.pp item)
    (Hermes_history.Values.final_values h)

let test_read_only_commit () =
  let w = make_world () in
  load_standard w;
  let outcome = ref None in
  ignore
    (Dtm.submit w.dtm (Program.make [ select a [ 0; 1 ]; select b [ 2 ] ]) ~on_done:(fun o -> outcome := Some o));
  run_to_completion w;
  Alcotest.(check bool) "committed" true (!outcome = Some Coordinator.Committed)

let test_many_sequential_commits () =
  let w = make_world () in
  load_standard w;
  let committed = ref 0 in
  let rec submit_next n =
    if n > 0 then
      ignore
        (Dtm.submit w.dtm
           (Program.make [ update a (n mod 10) 1; update b (n mod 10) (-1) ])
           ~on_done:(fun o ->
             if o = Coordinator.Committed then incr committed;
             submit_next (n - 1)))
  in
  submit_next 20;
  run_to_completion w;
  Alcotest.(check int) "all committed" 20 !committed;
  let rep = Report.analyze (Dtm.history w.dtm) in
  Alcotest.(check bool) "rigorous" true (Correctness.rigorous rep.Report.verdict);
  Alcotest.(check bool) "no distortions" true (rep.Report.verdict.Correctness.distortions = []);
  Alcotest.(check bool) "CG acyclic" true (rep.Report.verdict.Correctness.cg_cycle = None)

let test_concurrent_nonconflicting () =
  let w = make_world () in
  load_standard w;
  let committed = ref 0 in
  (* Five concurrent global transactions on disjoint keys. *)
  for i = 0 to 4 do
    ignore
      (Dtm.submit w.dtm
         (Program.make [ update a i 1; update b i 1 ])
         ~on_done:(fun o -> if o = Coordinator.Committed then incr committed))
  done;
  run_to_completion w;
  Alcotest.(check int) "all five committed" 5 !committed;
  Alcotest.(check bool) "clean" true (Report.ok (Report.analyze (Dtm.history w.dtm)))

let test_concurrent_conflicting_failure_free () =
  (* The §6 restrictiveness claim: failure-free, the certifier aborts
     nothing, even under conflicts (lock waits serialize them). *)
  let w = make_world () in
  load_standard w;
  let committed = ref 0 and aborted = ref 0 in
  for _ = 1 to 8 do
    ignore
      (Dtm.submit w.dtm
         (Program.make [ update a 0 1; update b 0 1 ])
         ~on_done:(fun o -> if o = Coordinator.Committed then incr committed else incr aborted))
  done;
  run_to_completion w;
  Alcotest.(check int) "all committed" 8 !committed;
  Alcotest.(check int) "none aborted" 0 !aborted;
  let va = Hermes_store.Database.read (Dtm.database w.dtm a) ~table:"X" ~key:0 in
  Alcotest.(check int) "serialized increments" 108 (Hermes_store.Row.value (Option.get va));
  Alcotest.(check bool) "clean" true (Report.ok (Report.analyze (Dtm.history w.dtm)))

(* ------------------------------------------------------------------ *)
(* Failures: unilateral aborts in the prepared state                   *)
(* ------------------------------------------------------------------ *)

let failing_site_spec ~p _ = { Dtm.default_site_spec with Dtm.failure = Failure.prepared_rate p }

let test_resubmission_recovers () =
  (* Aggressive failure injection on prepared subtransactions: the agent
     must resubmit and still commit everything, with no distortions. *)
  let w = make_world ~site_spec:(failing_site_spec ~p:0.5) () in
  load_standard w;
  let committed = ref 0 and aborted = ref 0 in
  let rec submit_next n =
    if n > 0 then
      ignore
        (Dtm.submit w.dtm
           (Program.make [ update a (n mod 5) 1; update b (n mod 5) (-1) ])
           ~on_done:(fun o ->
             (if o = Coordinator.Committed then incr committed else incr aborted);
             submit_next (n - 1)))
  in
  submit_next 15;
  run_to_completion w;
  Alcotest.(check int) "all runs finished" 15 (!committed + !aborted);
  Alcotest.(check bool) "most committed" true (!committed >= 10);
  let h = Dtm.history w.dtm in
  let rep = Report.analyze h in
  Alcotest.(check bool) "rigorous" true (Correctness.rigorous rep.Report.verdict);
  Alcotest.(check bool) "no global distortion" true (rep.Report.verdict.Correctness.distortions = []);
  Alcotest.(check bool) "CG acyclic" true (rep.Report.verdict.Correctness.cg_cycle = None);
  (* At least one resubmission actually happened, else the test is vacuous. *)
  let totals = Dtm.totals w.dtm in
  Alcotest.(check bool) "resubmissions occurred" true (totals.Dtm.resubmissions > 0)

let test_balance_invariant_under_failures () =
  (* Transfers between sites preserve total money even with failures. *)
  let w = make_world ~site_spec:(failing_site_spec ~p:0.4) ~seed:7 () in
  load_standard w;
  let total () =
    Hermes_store.Database.total (Dtm.database w.dtm a) ~table:"X"
    + Hermes_store.Database.total (Dtm.database w.dtm b) ~table:"X"
  in
  let before = total () in
  let finished = ref 0 in
  let rec submit_next n =
    if n > 0 then
      ignore
        (Dtm.submit w.dtm
           (Program.make [ update a (n mod 10) (-5); update b ((n + 3) mod 10) 5 ])
           ~on_done:(fun _ ->
             incr finished;
             submit_next (n - 1)))
  in
  submit_next 12;
  run_to_completion w;
  Alcotest.(check int) "all finished" 12 !finished;
  Alcotest.(check int) "money conserved" before (total ())

let test_site_crash_recovery () =
  (* Collective aborts (site crashes) during a workload: the certifier
     recovers every prepared subtransaction by resubmission and the
     history stays clean. *)
  let crash_spec i =
    if i = 0 then
      { Dtm.default_site_spec with Dtm.failure = Failure.crashes ~mean_interval:20_000 ~horizon:300_000 }
    else Dtm.default_site_spec
  in
  let w = make_world ~site_spec:crash_spec ~seed:21 () in
  load_standard w;
  let committed = ref 0 and finished = ref 0 in
  let rec submit_next n =
    if n > 0 then
      ignore
        (Dtm.submit w.dtm
           (Program.make [ update a (n mod 5) 1; update b (n mod 5) (-1) ])
           ~on_done:(fun o ->
             incr finished;
             if o = Coordinator.Committed then incr committed;
             submit_next (n - 1)))
  in
  submit_next 20;
  run_to_completion w;
  Alcotest.(check int) "all finished" 20 !finished;
  Alcotest.(check bool) "most committed" true (!committed >= 15);
  Alcotest.(check bool) "crashes happened" true (Failure.crash_count (Dtm.injector w.dtm a) >= 1);
  let rep = Report.analyze (Dtm.history w.dtm) in
  Alcotest.(check bool) "rigorous" true (Correctness.rigorous rep.Report.verdict);
  Alcotest.(check bool) "no distortions" true (rep.Report.verdict.Correctness.distortions = []);
  Alcotest.(check bool) "CG acyclic" true (rep.Report.verdict.Correctness.cg_cycle = None)

(* ------------------------------------------------------------------ *)
(* Agent crash & recovery (Agent-log durability, 2PC idempotence)      *)
(* ------------------------------------------------------------------ *)

(* Crash site [s] as soon as its agent holds a prepared subtransaction
   (polling monitor, like the scenario saboteur). *)
let crash_when_prepared w s =
  let agent = Dtm.agent w.dtm s in
  let fired = ref false in
  let rec poll () =
    if (not !fired) && Time.to_int (Engine.now w.engine) < 2_000_000 then
      if Hermes_core.Agent.n_prepared agent > 0 then begin
        fired := true;
        Dtm.crash_site w.dtm s
      end
      else Engine.schedule_unit w.engine ~delay:100 poll
  in
  Engine.schedule_unit w.engine ~delay:100 poll

let test_crash_while_prepared_recovers () =
  (* The in-doubt subtransaction must be rebuilt from the Agent log and
     still commit when the coordinator's COMMIT arrives. *)
  let w = make_world () in
  load_standard w;
  let outcome = ref None in
  ignore
    (Dtm.submit w.dtm (Program.make [ update a 0 7; update b 0 (-7) ]) ~on_done:(fun o -> outcome := Some o));
  crash_when_prepared w a;
  run_to_completion w;
  (match !outcome with
  | Some Coordinator.Committed -> ()
  | Some (Coordinator.Aborted r) -> Alcotest.failf "aborted: %a" Coordinator.pp_reason r
  | None -> Alcotest.fail "stuck");
  (* Effects applied exactly once despite the crash. *)
  let va = Hermes_store.Database.read (Dtm.database w.dtm a) ~table:"X" ~key:0 in
  Alcotest.(check int) "applied once" 107 (Hermes_store.Row.value (Option.get va));
  let ags = Hermes_core.Agent.stats (Dtm.agent w.dtm a) in
  Alcotest.(check int) "one crash" 1 ags.Hermes_core.Agent.crashes;
  Alcotest.(check bool) "recovered from log" true (ags.Hermes_core.Agent.recovered >= 1);
  Alcotest.(check bool) "clean" true (Report.ok (Report.analyze (Dtm.history w.dtm)))

let test_crash_while_active_aborts () =
  (* Crashing before the prepare: the work is simply lost; the coordinator
     learns through the failed command (or its timeout) and aborts. *)
  let w = make_world () in
  load_standard w;
  let outcome = ref None in
  ignore
    (Dtm.submit w.dtm
       (Program.make [ update a 0 7; update a 1 7; update b 0 (-14) ])
       ~on_done:(fun o -> outcome := Some o));
  (* Crash site a mid-execution (before any prepare can exist). *)
  Engine.schedule_unit w.engine ~delay:1_800 (fun () -> Dtm.crash_site w.dtm a);
  run_to_completion w;
  (match !outcome with
  | Some (Coordinator.Aborted _) -> ()
  | Some Coordinator.Committed -> Alcotest.fail "must abort"
  | None -> Alcotest.fail "stuck");
  (* Nothing leaked: values intact. *)
  let va = Hermes_store.Database.read (Dtm.database w.dtm a) ~table:"X" ~key:0 in
  Alcotest.(check int) "rolled back" 100 (Hermes_store.Row.value (Option.get va))

let test_crash_storm_workload () =
  (* Repeated crashes of both sites during a concurrent workload: every
     transaction finishes (decision retransmission + idempotent re-acks),
     money is conserved, and the history verifies. *)
  let w = make_world ~seed:31 () in
  load_standard w;
  let committed = ref 0 and finished = ref 0 in
  let rec submit_next n =
    if n > 0 then
      ignore
        (Dtm.submit w.dtm
           (Program.make [ update a (n mod 5) 3; update b (n mod 5) (-3) ])
           ~on_done:(fun o ->
             incr finished;
             if o = Coordinator.Committed then incr committed;
             submit_next (n - 1)))
  in
  submit_next 25;
  (* Crashes every ~15ms on alternating sites while the workload runs. *)
  let rec storm i =
    if i < 12 then
      Engine.schedule_unit w.engine ~delay:15_000 (fun () ->
          Dtm.crash_site w.dtm (if i mod 2 = 0 then a else b);
          storm (i + 1))
  in
  storm 0;
  run_to_completion w;
  Alcotest.(check int) "all finished" 25 !finished;
  Alcotest.(check bool) "most committed" true (!committed >= 15);
  let total =
    Hermes_store.Database.total (Dtm.database w.dtm a) ~table:"X"
    + Hermes_store.Database.total (Dtm.database w.dtm b) ~table:"X"
  in
  Alcotest.(check int) "money conserved" 2000 total;
  let rep = Report.analyze (Dtm.history w.dtm) in
  Alcotest.(check bool) "rigorous" true (Correctness.rigorous rep.Report.verdict);
  Alcotest.(check bool) "no distortions" true (rep.Report.verdict.Correctness.distortions = []);
  Alcotest.(check bool) "CG acyclic" true (rep.Report.verdict.Correctness.cg_cycle = None)

(* Regression: the coordinator used to count PREPARE-phase votes with a
   plain integer, so two READYs from the same site (a duplicated message
   on a flaky network) looked like quorum and the COMMIT went out before
   every participant had voted. Votes are now a site set. *)
let test_duplicate_votes_no_early_commit () =
  let module Network = Hermes_net.Network in
  let engine = Engine.create () in
  let net =
    Network.create ~engine ~rng:(Rng.create ~seed:5)
      ~config:{ Hermes_net.Network.default_config with jitter = 0 }
      ()
  in
  let trace = Trace.create () in
  let b_voted = ref false and early_commit = ref false in
  (* Scripted participants: site a votes READY twice in a row; site b
     only votes 50k ticks later. A COMMIT before b's vote is the bug. *)
  let agent_handler ~double site (m : Wire.t) =
    let reply p = Network.send net ~src:(Wire.Agent site) ~dst:m.Wire.src ~gid:m.Wire.gid p in
    match m.Wire.payload with
    | Wire.Begin _ -> ()
    | Wire.Exec { step; _ } -> reply (Wire.Exec_ok { step; result = Command.Count 1 })
    | Wire.Prepare _ ->
        if double then begin
          reply Wire.Ready;
          reply Wire.Ready
        end
        else
          Engine.schedule_unit engine ~delay:50_000 (fun () ->
              b_voted := true;
              reply Wire.Ready)
    | Wire.Commit ->
        if not !b_voted then early_commit := true;
        reply Wire.Commit_ack
    | Wire.Rollback -> reply Wire.Rollback_ack
    | _ -> ()
  in
  Network.register net (Wire.Agent a) (agent_handler ~double:true a);
  Network.register net (Wire.Agent b) (agent_handler ~double:false b);
  let outcome = ref None in
  ignore
    (Coordinator.start ~gid:1 ~site:a ~engine ~net ~trace ~config:Config.full
       ~sn_gen:(fun () -> Sn.make ~ts:(Engine.now engine) ~site:a ~seq:1)
       ~program:(Program.make [ update a 0 1; update b 0 1 ])
       ~on_done:(fun o -> outcome := Some o)
       ());
  Engine.run engine;
  Alcotest.(check bool) "committed" true (!outcome = Some Coordinator.Committed);
  Alcotest.(check bool) "no COMMIT before the second vote" false !early_commit

(* Regression: a COMMIT arriving for a prepared subtransaction the agent
   no longer knows (its volatile state died in a crash) used to raise.
   The decision must instead be noted durably in the Agent log so that
   recovery redoes the local commit and acks. *)
let test_commit_while_crashed_noted_durably () =
  let w = make_world () in
  load_standard w;
  let outcome = ref None in
  ignore
    (Dtm.submit w.dtm (Program.make [ update a 0 7; update b 0 (-7) ]) ~on_done:(fun o -> outcome := Some o));
  let agent = Dtm.agent w.dtm a in
  let noted = ref false in
  let fired = ref false in
  (* Crash the agent in place the moment it is prepared: its handler
     stays registered, so the coordinator's COMMIT reaches a crashed
     agent that has no volatile state for the gid. *)
  let rec poll () =
    if not !fired then
      if Hermes_core.Agent.n_prepared agent > 0 then begin
        fired := true;
        Hermes_core.Agent.crash agent;
        (* Well after the COMMIT has arrived (base delay 500, jitter 200)
           but before recovery: the decision must already be durable,
           the local commit must not have happened. *)
        Engine.schedule_unit w.engine ~delay:5_000 (fun () ->
            (match Agent_log.find (Hermes_core.Agent.agent_log agent) ~gid:1 with
            | Some e -> noted := e.Agent_log.committed && not e.Agent_log.locally_committed
            | None -> ());
            Hermes_core.Agent.recover agent)
      end
      else Engine.schedule_unit w.engine ~delay:100 poll
  in
  Engine.schedule_unit w.engine ~delay:100 poll;
  run_to_completion w;
  (match !outcome with
  | Some Coordinator.Committed -> ()
  | Some (Coordinator.Aborted r) -> Alcotest.failf "aborted: %a" Coordinator.pp_reason r
  | None -> Alcotest.fail "stuck");
  Alcotest.(check bool) "decision noted durably before recovery" true !noted;
  let va = Hermes_store.Database.read (Dtm.database w.dtm a) ~table:"X" ~key:0 in
  Alcotest.(check int) "applied exactly once" 107 (Hermes_store.Row.value (Option.get va));
  Alcotest.(check bool) "clean" true (Report.ok (Report.analyze (Dtm.history w.dtm)))

(* Every protocol message duplicated: BEGIN, EXEC, votes, decisions and
   acks must all be handled idempotently end to end. *)
let test_fully_duplicated_network () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:42 in
  let dtm =
    Dtm.create ~engines:[| engine |] ~rng
      ~net_config:
        {
          Hermes_net.Network.default_config with
          faults = { Hermes_net.Network.no_faults with Hermes_net.Network.dup = 1.0 };
        }
      ~certifier:Config.full
      ~site_specs:(Array.init 2 (fun _ -> Dtm.default_site_spec))
      ()
  in
  let w = { engine; dtm } in
  load_standard w;
  let committed = ref 0 and finished = ref 0 in
  for i = 0 to 9 do
    ignore
      (Dtm.submit w.dtm
         (Program.make [ update a (i mod 5) 3; update b (i mod 5) (-3) ])
         ~on_done:(fun o ->
           incr finished;
           if o = Coordinator.Committed then incr committed))
  done;
  run_to_completion w;
  Alcotest.(check int) "all finished" 10 !finished;
  Alcotest.(check int) "all committed" 10 !committed;
  let total =
    Hermes_store.Database.total (Dtm.database w.dtm a) ~table:"X"
    + Hermes_store.Database.total (Dtm.database w.dtm b) ~table:"X"
  in
  Alcotest.(check int) "effects applied exactly once" 2000 total;
  Alcotest.(check bool) "clean" true (Report.ok (Report.analyze (Dtm.history w.dtm)))

let test_agent_log_in_doubt () =
  let log = Agent_log.create () in
  let coordinator = Wire.Coordinator 1 in
  let sn = Sn.make ~ts:(Time.of_int 5) ~site:a ~seq:1 in
  List.iter (fun gid -> Agent_log.apply log (Agent_sm.R_entry { gid; coordinator })) [ 1; 2; 3; 4; 5 ];
  (* 1: prepared, in doubt. 2: decision forced but not locally committed:
     still needs recovery (redo). 3: fully committed. 4: rolled back.
     5: never prepared. *)
  List.iter (Agent_log.apply log)
    [
      Agent_sm.R_prepare { gid = 1; sn };
      R_prepare { gid = 2; sn };
      R_commit { gid = 2 };
      R_prepare { gid = 3; sn };
      R_commit { gid = 3 };
      R_local_commit { gid = 3 };
      R_prepare { gid = 4; sn };
      R_rollback { gid = 4 };
    ];
  let in_doubt = List.map (fun e -> e.Agent_sm.r_gid) (Agent_log.in_doubt log) in
  Alcotest.(check (list int)) "in doubt" [ 1; 2 ] in_doubt;
  Alcotest.(check bool) "max committed sn" true (Agent_log.max_committed_sn log = Some sn);
  Alcotest.(check bool) "force writes counted" true (Agent_log.force_writes log >= 6)

let test_agent_log_force_commit_idempotent () =
  (* A decision replayed after recovery must not pay a second synchronous
     force or disturb the biggest-committed-SN watermark. *)
  let log = Agent_log.create () in
  let sn = Sn.make ~ts:(Time.of_int 9) ~site:a ~seq:1 in
  List.iter (Agent_log.apply log)
    [
      Agent_sm.R_entry { gid = 1; coordinator = Wire.Coordinator 1 };
      R_prepare { gid = 1; sn };
      R_commit { gid = 1 };
    ];
  let forces = Agent_log.force_writes log in
  Agent_log.apply log (Agent_sm.R_commit { gid = 1 });
  Agent_log.apply log (Agent_sm.R_commit { gid = 1 });
  Alcotest.(check int) "replayed forces are free" forces (Agent_log.force_writes log);
  Alcotest.(check bool) "still committed" true (Agent_log.view log ~gid:1).Agent_sm.committed;
  Alcotest.(check bool) "watermark unchanged" true (Agent_log.max_committed_sn log = Some sn)

let test_agent_log_commands_order () =
  let log = Agent_log.create () in
  let c1 = Command.Select { table = "X"; keys = [ 1 ] } in
  let c2 = Command.Update { table = "X"; key = 2; delta = 1 } in
  List.iter (Agent_log.apply log)
    [
      Agent_sm.R_entry { gid = 1; coordinator = Wire.Coordinator 1 };
      R_command { gid = 1; cmd = c1 };
      R_command { gid = 1; cmd = c2 };
    ];
  Alcotest.(check bool) "replay order preserved" true
    (Agent_log.commands (Option.get (Agent_log.find log ~gid:1)) = [ c1; c2 ])

(* ------------------------------------------------------------------ *)
(* Coordinator crash & recovery (Coordinator-log durability,           *)
(* in-doubt termination)                                               *)
(* ------------------------------------------------------------------ *)

(* Crash site [s] as soon as site [watch]'s agent holds a prepared
   subtransaction. *)
let crash_when_site_prepared ?(reboot_delay = 0) w ~watch s =
  let agent = Dtm.agent w.dtm watch in
  let fired = ref false in
  let rec poll () =
    if (not !fired) && Time.to_int (Engine.now w.engine) < 2_000_000 then
      if Hermes_core.Agent.n_prepared agent > 0 then begin
        fired := true;
        Dtm.crash_site ~reboot_delay w.dtm s
      end
      else Engine.schedule_unit w.engine ~delay:100 poll
  in
  Engine.schedule_unit w.engine ~delay:100 poll

(* Regression for [Dtm.crash_site] on a coordinating site. Without
   [crash_coordinators] the hosted coordinator survives its own site's
   crash (the pre-durability idealization: 2PC state was effectively
   immortal) and the round completes as if nothing happened to it. *)
let test_crash_coordinating_site_legacy_immortal () =
  let w = make_world () in
  load_standard w;
  let outcome = ref None in
  ignore
    (Dtm.submit w.dtm (Program.make [ update a 0 5; update b 0 (-5) ]) ~on_done:(fun o -> outcome := Some o));
  (* Site a hosts the coordinator; crash it once b is prepared — with the
     flag off, the coordinator keeps driving the round from beyond the
     grave. *)
  crash_when_site_prepared w ~watch:b a;
  run_to_completion w;
  Alcotest.(check bool) "round still completes" true (!outcome <> None);
  (* The coordinator log was written regardless (begin + prepared), so
     enabling the flag later has a log to recover from. *)
  Alcotest.(check bool) "coordinator log populated" true
    (Coordinator_log.find (Dtm.coordinator_log w.dtm a) ~gid:1 <> None);
  Alcotest.(check bool) "clean" true (Report.ok (Report.analyze (Dtm.history w.dtm)))

(* With [crash_coordinators], the same crash kills the coordinator
   before it decides: recovery finds no decision record and presumes
   abort, so the prepared participant is released instead of blocking
   forever. *)
let test_crash_coordinating_site_presumes_abort () =
  let w = make_world ~crash_coordinators:true () in
  load_standard w;
  let outcome = ref None in
  ignore
    (Dtm.submit w.dtm (Program.make [ update a 0 5; update b 0 (-5) ]) ~on_done:(fun o -> outcome := Some o));
  (* b's READY is still in flight when the poll fires (votes take >= 300
     ticks, the poll lags <= 100), so the coordinator cannot have decided
     yet: this is the in-doubt window. *)
  crash_when_site_prepared w ~watch:b a;
  run_to_completion w;
  (match !outcome with
  | Some (Coordinator.Aborted Coordinator.Presumed_abort) -> ()
  | Some o -> Alcotest.failf "expected presumed abort, got %a" Coordinator.pp_outcome o
  | None -> Alcotest.fail "participant blocked forever");
  (* Rolled back everywhere: values intact. *)
  let va = Hermes_store.Database.read (Dtm.database w.dtm a) ~table:"X" ~key:0 in
  let vb = Hermes_store.Database.read (Dtm.database w.dtm b) ~table:"X" ~key:0 in
  Alcotest.(check int) "a rolled back" 100 (Hermes_store.Row.value (Option.get va));
  Alcotest.(check int) "b rolled back" 100 (Hermes_store.Row.value (Option.get vb));
  (* The log's decision record is the presumed abort. *)
  (match Coordinator_log.find (Dtm.coordinator_log w.dtm a) ~gid:1 with
  | Some e -> Alcotest.(check bool) "decision = abort" true (e.Coordinator_log.decision = Some false)
  | None -> Alcotest.fail "no coordinator-log entry");
  Alcotest.(check bool) "clean" true (Report.ok (Report.analyze (Dtm.history w.dtm)))

(* The acceptance scenario: the coordinating site crashes right after
   deciding COMMIT, so the decision reaches only a strict subset of the
   participants (the coordinator's own site and, during the down window,
   nobody else in doubt gets an answer). The participants terminate via
   Coordinator-log recovery plus DECISION-REQ inquiries. *)
let test_coordinator_crash_after_partial_commit () =
  let s2 = Site.of_int 2 in
  let obs = Hermes_obs.Obs.create () in
  let w = make_world ~n_sites:3 ~crash_coordinators:true ~obs () in
  load_standard w;
  let outcome = ref None in
  ignore
    (Dtm.submit w.dtm
       (Program.make [ update a 0 4; update b 0 3; (s2, Command.Update { table = "X"; key = 0; delta = -7 }) ])
       ~on_done:(fun o -> outcome := Some o));
  (* First: participant s2 crashes while prepared and stays down 20k
     ticks — the COMMIT sent to it is a counted drop, leaving it in
     doubt after recovery. *)
  crash_when_site_prepared ~reboot_delay:20_000 w ~watch:s2 s2;
  (* Second: the moment the decision record hits the coordinator log,
     the coordinating site crashes for 100k ticks — longer than the
     60k-tick inquiry interval, so s2's recovery provably sends at least
     one DECISION-REQ into the outage before the reboot answers. *)
  let clog = Dtm.coordinator_log w.dtm a in
  let fired = ref false in
  let rec poll () =
    if (not !fired) && Time.to_int (Engine.now w.engine) < 2_000_000 then
      match Coordinator_log.find clog ~gid:1 with
      | Some e when e.Coordinator_log.decision = Some true ->
          fired := true;
          Dtm.crash_site ~reboot_delay:100_000 w.dtm a
      | Some _ | None -> Engine.schedule_unit w.engine ~delay:100 poll
  in
  Engine.schedule_unit w.engine ~delay:100 poll;
  run_to_completion w;
  (match !outcome with
  | Some Coordinator.Committed -> ()
  | Some (Coordinator.Aborted r) -> Alcotest.failf "aborted: %a" Coordinator.pp_reason r
  | None -> Alcotest.fail "blocked forever");
  Alcotest.(check bool) "the decision was made before the crash" true !fired;
  (* Every participant reached committed, exactly once. *)
  List.iter
    (fun (site, expect) ->
      let row = Hermes_store.Database.read (Dtm.database w.dtm site) ~table:"X" ~key:0 in
      Alcotest.(check int)
        (Fmt.str "site %a committed" Site.pp site)
        expect
        (Hermes_store.Row.value (Option.get row)))
    [ (a, 104); (b, 103); (s2, 93) ];
  (* The termination protocol actually ran: s2 recovered in doubt and
     asked for the outcome. *)
  let reg = Hermes_obs.Obs.metrics obs in
  Alcotest.(check bool) "at least one DECISION-REQ sent" true
    (Hermes_obs.Registry.sum_counter reg "agent.inquiries" >= 1);
  (* The log kept the decision; nothing (the one round) is left
     undecided. *)
  Alcotest.(check bool) "no undecided coordinator-log entries" true
    (match Coordinator_log.find clog ~gid:1 with
    | Some e -> e.Coordinator_log.decision <> None
    | None -> false);
  Alcotest.(check bool) "clean" true (Report.ok (Report.analyze (Dtm.history w.dtm)))

(* ------------------------------------------------------------------ *)
(* Crash handling cost: only live rounds are touched                   *)
(* ------------------------------------------------------------------ *)

module Acceptor = Hermes_core.Acceptor
module Network = Hermes_net.Network
module Obs = Hermes_obs.Obs
module Registry = Hermes_obs.Registry
module Tracer = Hermes_obs.Tracer

let paxos = { Config.full with Config.commit_proto = Config.Paxos { f = 1 } }

(* One acceptor shell with its own engine and network. The fabric says
   every address lives on another shard, so each send leaves at once
   into [sent]; inputs come in through [deliver_remote]. *)
type shell = { s_engine : Engine.t; s_net : Network.t; s_obs : Obs.t; sent : Wire.t list ref }

let shell () =
  let engine = Engine.create () in
  let sent = ref [] in
  let fabric =
    {
      Network.here = 0;
      locate = (fun _ -> 1);
      forward = (fun ~shard:_ ~arrival:_ msg -> sent := msg :: !sent);
    }
  in
  {
    s_engine = engine;
    s_net = Network.create ~engine ~rng:(Rng.create ~seed:1) ~fabric ~config:Network.default_config ();
    s_obs = Obs.create ();
    sent;
  }

let deliver sh msg =
  Network.deliver_remote sh.s_net ~arrival:(Engine.now sh.s_engine) msg;
  Engine.run sh.s_engine

(* What a shell has shown since the last look: its sends, in order, then
   its force count and event counters. *)
let observe sh ~force_writes =
  let sent = List.rev !(sh.sent) in
  sh.sent := [];
  let reg = Obs.metrics sh.s_obs in
  ( sent,
    force_writes,
    List.map (Registry.sum_counter reg)
      [ "acceptor.recovery_ballots"; "acceptor.chosen"; "acceptor.nacks"; "acceptor.log_force_writes" ] )

(* A random register input for instance [idx] of [gid]: ballots come from
   a small range, so promises and acceptances meet the ballots the
   instances lead (round * 3 + idx + 1). *)
let random_input rng ~gid ~idx =
  let draw_ballot () = Rng.int rng ~bound:8 in
  let flip () = Rng.bool rng ~p:0.5 in
  let src =
    match Rng.int rng ~bound:3 with
    | 0 -> Wire.Acceptor { gid; idx = (idx + 1 + Rng.int rng ~bound:2) mod 3 }
    | 1 -> Wire.Coordinator gid
    | _ -> Wire.Agent (Site.of_int (Rng.int rng ~bound:3))
  in
  let payload =
    match Rng.int rng ~bound:7 with
    | 0 | 1 -> Wire.Decision_req
    | 2 ->
        let ballot = draw_ballot () in
        Wire.Px_accept { ballot; committed = flip () }
    | 3 -> Wire.Px_query { ballot = draw_ballot () }
    | 4 ->
        let ballot = draw_ballot () in
        let promised = ballot + Rng.int rng ~bound:2 in
        let accepted = if flip () then Some (draw_ballot (), flip ()) else None in
        Wire.Px_promise { ballot; promised; accepted; idx = Rng.int rng ~bound:3 }
    | 5 ->
        let ballot = draw_ballot () in
        Wire.Px_accepted { ballot; idx = Rng.int rng ~bound:3 }
    | _ -> Wire.Px_decision { committed = flip () }
  in
  { Wire.src; dst = Wire.Acceptor { gid; idx }; gid; payload }

(* The same random sequence of host, deliver, crash and recover, applied
   to the lazy acceptor shell and to the eager reference; after each
   step both must have sent the same messages in the same order, forced
   as often and counted the same events. *)
let acceptor_sequence_agrees seed =
  let rng = Rng.create ~seed in
  let lazy_ = shell () and eager = shell () in
  let acc = Acceptor.create ~site:a ~engine:lazy_.s_engine ~net:lazy_.s_net ~obs:lazy_.s_obs ~config:paxos () in
  let ref_ =
    Acceptor_reference.create ~site:a ~engine:eager.s_engine ~net:eager.s_net ~obs:eager.s_obs
      ~config:paxos ()
  in
  let hosted = ref [] in
  let rec go n =
    n = 0
    ||
    let op = Rng.int rng ~bound:8 in
    (match op with
    | 0 | 1 ->
        let gid = 1 + Rng.int rng ~bound:3 and idx = Rng.int rng ~bound:3 in
        Acceptor.host acc ~gid ~idx;
        Acceptor_reference.host ref_ ~gid ~idx;
        if not (List.mem (gid, idx) !hosted) then hosted := (gid, idx) :: !hosted
    | 2 ->
        Acceptor.crash acc;
        Acceptor_reference.crash ref_
    | 3 ->
        Acceptor.recover acc;
        Acceptor_reference.recover ref_
    | _ -> (
        match !hosted with
        | [] -> ()
        | l ->
            let gid, idx = List.nth l (Rng.int rng ~bound:(List.length l)) in
            let msg = random_input rng ~gid ~idx in
            deliver lazy_ msg;
            deliver eager msg));
    observe lazy_ ~force_writes:(Acceptor.force_writes acc)
    = observe eager ~force_writes:(Acceptor_reference.force_writes ref_)
    && go (n - 1)
  in
  go (10 + Rng.int rng ~bound:80)

let prop_lazy_acceptor_matches_eager =
  QCheck.Test.make ~name:"lazy acceptor resync = eager crash and recover" ~count:1000
    QCheck.(int_bound 1_000_000)
    acceptor_sequence_agrees

(* A reboot-delayed outage under Paxos (f = 1) with coordinator crashes.
   While site a is down, a message to a coordinator or an acceptor hosted
   there before the crash is a [down] drop, finished round or not; one to
   the coordinator or acceptor of a round submitted during the outage is
   delivered. After the reboot everything is delivered. Probes carry
   their own gid (1000s during, 2000s after), so their drops can be told
   apart in the trace, and payloads every phase ignores. *)
let test_outage_drops_only_pre_crash_rounds () =
  let s2 = Site.of_int 2 in
  let obs = Obs.create () in
  let w = make_world ~n_sites:3 ~certifier:paxos ~crash_coordinators:true ~obs () in
  load_standard w;
  let net = List.hd (Dtm.networks w.dtm) in
  let program key = Program.make [ update a key 1; update b key 1; update s2 key 1 ] in
  let g1 = Dtm.submit w.dtm (program 0) ~on_done:ignore in
  run_to_completion w;
  (* g1 finished; g2 is submitted and its site crashes in the same tick *)
  let g2 = Dtm.submit w.dtm (program 1) ~on_done:ignore in
  Dtm.crash_site ~reboot_delay:100_000 w.dtm a;
  (* acceptor [idx] of [gid] lives at site (gid + idx) mod 3: pick a's *)
  let at_a gid = Wire.Acceptor { gid; idx = (3 - (gid mod 3)) mod 3 } in
  let probe_set g3 =
    [
      (Wire.Coordinator g1, true);
      (Wire.Coordinator g2, true);
      (at_a g1, true);
      (at_a g2, true);
      (Wire.Coordinator g3, false);
      (at_a g3, false);
    ]
  in
  let probe base =
    List.iteri (fun i (dst, _) ->
        let payload =
          match dst with
          | Wire.Coordinator _ -> Wire.Exec_failed { step = 99; reason = "probe" }
          | _ -> Wire.Commit_ack
        in
        Network.send net ~src:(Wire.Agent b) ~dst ~gid:(base + i) payload)
  in
  let g3 = ref 0 in
  Engine.schedule_unit w.engine ~delay:1_000 (fun () ->
      g3 := Dtm.submit w.dtm (program 2) ~on_done:ignore;
      List.iter
        (fun (dst, down) ->
          Alcotest.(check bool) (Fmt.str "during: %a down" Wire.pp_address dst) down (Network.is_down net dst))
        (probe_set !g3);
      probe 1000 (probe_set !g3));
  Engine.schedule_unit w.engine ~delay:101_000 (fun () ->
      List.iter
        (fun (dst, _) ->
          Alcotest.(check bool) (Fmt.str "after: %a up" Wire.pp_address dst) false (Network.is_down net dst))
        (probe_set !g3);
      probe 2000 (probe_set !g3));
  run_to_completion w;
  let down_drops =
    List.filter_map
      (function
        | _, Tracer.Message_dropped { gid; reason = "down"; _ } when gid >= 1000 -> Some gid | _ -> None)
      (Tracer.events (Obs.trace obs))
    |> List.sort Int.compare
  in
  Alcotest.(check (list int)) "exactly the pre-crash probes dropped during the outage" [ 1000; 1001; 1002; 1003 ]
    down_drops;
  Alcotest.(check bool) "clean" true (Report.ok (Report.analyze (Dtm.history w.dtm)))

(* ------------------------------------------------------------------ *)
(* Certification behaviour                                             *)
(* ------------------------------------------------------------------ *)

(* Conflicting traffic in the H1 shape: readers of X0 that write X1,
   racing writers of X0 — so when a prepared reader is unilaterally
   aborted, a waiting writer grabs X0, commits, and the reader's
   resubmission re-reads X0 from it. No S->X upgrades (each key is locked
   in its final mode directly), so no upgrade deadlocks. *)
let conflicting_batches w ~batches ~width =
  let remaining = ref batches in
  let rec launch_batch () =
    if !remaining > 0 then begin
      decr remaining;
      let pending = ref width in
      for i = 0 to width - 1 do
        let program =
          if i mod 2 = 0 then Program.make [ select a [ 0 ]; update a 1 1; update b 0 1 ]
          else Program.make [ update a 0 1; update b 0 1 ]
        in
        ignore
          (Dtm.submit w.dtm program
             ~on_done:(fun _ ->
               decr pending;
               if !pending = 0 then launch_batch ()))
      done
    end
  in
  launch_batch ()

let test_naive_agent_distorts () =
  (* With certification off, failure injection plus conflicting concurrent
     traffic must eventually produce a global view distortion — the H1
     scenario arising naturally. (Deterministic H1/H2 replays live in the
     harness scenarios; here we only require the anomaly arises on some
     seed.) *)
  let found = ref false in
  let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  List.iter
    (fun seed ->
      if not !found then begin
        let w = make_world ~certifier:Config.naive ~site_spec:(failing_site_spec ~p:0.6) ~seed () in
        load_standard w;
        conflicting_batches w ~batches:6 ~width:4;
        (try run_to_completion w with Engine.Stuck _ -> ());
        let c = Committed.extended (Dtm.history w.dtm) in
        if Anomaly.global_view_distortions c <> [] then found := true
      end)
    seeds;
  Alcotest.(check bool) "naive agent produced a distortion" true !found

let test_full_certifier_never_distorts () =
  (* Same aggressive setting, full certifier: zero distortions, acyclic
     CG, across several seeds. *)
  List.iter
    (fun seed ->
      let w = make_world ~site_spec:(failing_site_spec ~p:0.6) ~seed () in
      load_standard w;
      conflicting_batches w ~batches:6 ~width:4;
      run_to_completion w;
      let c = Committed.extended (Dtm.history w.dtm) in
      Alcotest.(check (list string))
        (Fmt.str "no distortions (seed %d)" seed)
        []
        (List.map (Fmt.str "%a" Anomaly.pp_global) (Anomaly.global_view_distortions c));
      Alcotest.(check bool) (Fmt.str "CG acyclic (seed %d)" seed) true (Anomaly.commit_order_cycle c = None);
      Alcotest.(check bool) (Fmt.str "rigorous (seed %d)" seed) true
        (Rigorous.all_sites_rigorous (Dtm.history w.dtm)))
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Alive table unit tests                                              *)
(* ------------------------------------------------------------------ *)

let test_alive_table () =
  let t = Alive_table.create () in
  let sn n = Sn.make ~ts:(Time.of_int n) ~site:a ~seq:0 in
  let iv lo hi = Interval.make ~lo:(Time.of_int lo) ~hi:(Time.of_int hi) in
  Alive_table.insert t ~gid:1 ~sn:(sn 1) ~interval:(iv 0 10);
  Alive_table.insert t ~gid:2 ~sn:(sn 2) ~interval:(iv 5 15);
  Alcotest.(check int) "size" 2 (Alive_table.size t);
  Alcotest.(check bool) "intersecting candidate" true (Alive_table.all_intersect t (iv 8 9));
  Alcotest.(check bool) "disjoint candidate" false (Alive_table.all_intersect t (iv 20 30));
  Alcotest.(check bool) "gid1 is min sn" true (Alive_table.min_sn_holds t ~gid:1 ~sn:(sn 1));
  Alcotest.(check bool) "gid2 blocked by gid1" false (Alive_table.min_sn_holds t ~gid:2 ~sn:(sn 2));
  Alive_table.remove t ~gid:1;
  Alcotest.(check bool) "gid2 now free" true (Alive_table.min_sn_holds t ~gid:2 ~sn:(sn 2));
  Alive_table.extend_interval t ~gid:2 ~hi:(Time.of_int 40);
  Alcotest.(check bool) "extended" true (Alive_table.all_intersect t (iv 20 30))

let test_alive_table_duplicate () =
  let t = Alive_table.create () in
  let sn = Sn.make ~ts:Time.zero ~site:a ~seq:0 in
  Alive_table.insert t ~gid:1 ~sn ~interval:(Interval.point Time.zero);
  Alcotest.check_raises "duplicate" (Invalid_argument "Alive_table.insert: duplicate entry") (fun () ->
      Alive_table.insert t ~gid:1 ~sn ~interval:(Interval.point Time.zero))

let test_alive_table_multi_interval () =
  (* The §4.2 optimization is retired: a resubmission's fresh interval
     replaces the failed incarnation's, so a candidate matching only the
     old interval is refused. *)
  let iv lo hi = Interval.make ~lo:(Time.of_int lo) ~hi:(Time.of_int hi) in
  let sn = Sn.make ~ts:Time.zero ~site:a ~seq:0 in
  let t = Alive_table.create () in
  Alive_table.insert t ~gid:1 ~sn ~interval:(iv 0 10);
  Alive_table.update_interval t ~gid:1 (iv 100 110);
  Alcotest.(check bool) "baseline forgets" false (Alive_table.all_intersect t (iv 5 8))

open Deciders_reference

(* On equal serial numbers the blocker is the smaller gid, whichever
   was inserted first, in the table and in the list model. *)
let test_min_sn_blocker_tie_break () =
  let t = Alive_table.create () and m = Alive_model.create () in
  let sn = Sn.make ~ts:(Time.of_int 5) ~site:a ~seq:0 in
  let interval = Interval.make ~lo:Time.zero ~hi:(Time.of_int 10) in
  List.iter
    (fun gid ->
      Alive_table.insert t ~gid ~sn ~interval;
      Alive_model.insert m ~gid ~sn ~interval)
    [ 7; 3 ];
  let candidate_sn = Sn.make ~ts:(Time.of_int 9) ~site:a ~seq:0 in
  Alcotest.(check (option int))
    "table blocker ties on gid" (Some 3)
    (Option.map (fun (e : Alive_table.entry) -> e.Alive_table.gid)
       (Alive_table.min_sn_blocker t ~gid:99 ~sn:candidate_sn));
  Alcotest.(check (option int))
    "model blocker ties on gid" (Some 3) (Alive_model.min_sn_blocker m ~gid:99 ~sn:candidate_sn)

(* The array table must answer exactly like the list model of
   [Deciders_reference] after any sequence of inserts (duplicates
   refused), removals, resubmission updates and alive extensions, past
   the array's first growth (an extension goes by gid or through the
   entry [find] returns): every query, with serial numbers drawn from
   four values so the blocker's gid tie-break is exercised, and the
   smallest-gid intersection witness among several. A copy must not move
   when the table it was taken from does, nor the table when the copy
   does; the sequence goes on on a copy. *)
let prop_array_table_agrees_with_model =
  QCheck.Test.make ~name:"array table = list model" ~count:300 QCheck.small_nat (fun seed ->
      let rng = Rng.create ~seed:(seed + 1) in
      let t = ref (Alive_table.create ()) and m = Alive_model.create () in
      let sn n = Sn.make ~ts:(Time.of_int n) ~site:a ~seq:0 in
      let iv () =
        let lo = Rng.int rng ~bound:50 in
        Interval.make ~lo:(Time.of_int lo) ~hi:(Time.of_int (lo + Rng.int rng ~bound:30))
      in
      let sorted t =
        List.sort compare
          (List.map
             (fun (e : Alive_table.entry) -> (e.Alive_table.gid, e.Alive_table.sn, e.Alive_table.interval))
             (Alive_table.entries t))
      in
      let gid_of = Option.map (fun (e : Alive_table.entry) -> e.Alive_table.gid) in
      let ok = ref true in
      let check b = ok := !ok && b in
      for _ = 1 to 60 do
        let gid = Rng.int rng ~bound:12 in
        (match Rng.int rng ~bound:6 with
        | 0 | 1 -> (
            let sn = sn (Rng.int rng ~bound:4) and interval = iv () in
            let duplicate = Alive_model.mem m ~gid in
            match Alive_table.insert !t ~gid ~sn ~interval with
            | () ->
                check (not duplicate);
                Alive_model.insert m ~gid ~sn ~interval
            | exception Invalid_argument _ -> check duplicate)
        | 2 ->
            Alive_table.remove !t ~gid;
            Alive_model.remove m ~gid
        | 3 ->
            let interval = iv () in
            Alive_table.update_interval !t ~gid interval;
            Alive_model.update_interval m ~gid interval
        | 4 ->
            (* odd gids are extended through the entry [find] hands out *)
            let hi = Time.of_int (Rng.int rng ~bound:100) in
            (if gid mod 2 = 0 then Alive_table.extend_interval !t ~gid ~hi
             else Option.iter (Alive_table.extend_entry ~hi) (Alive_table.find !t ~gid));
            Alive_model.extend_interval m ~gid ~hi
        | _ ->
            let before = sorted !t in
            let c = Alive_table.copy !t in
            Alive_table.extend_interval c ~gid ~hi:(Time.of_int 1_000);
            Alive_table.remove c ~gid:(Rng.int rng ~bound:12);
            Alive_table.clear c;
            check (sorted !t = before);
            let c = Alive_table.copy !t in
            Alive_table.extend_interval !t ~gid ~hi:(Time.of_int 1_000);
            Alive_table.clear !t;
            check (sorted c = before);
            t := c);
        let cand = iv () in
        let gid' = Rng.int rng ~bound:12 and sn' = sn (Rng.int rng ~bound:4) in
        check (Alive_table.size !t = Alive_model.size m);
        check (sorted !t = Alive_model.sorted m);
        check (Alive_table.mem !t ~gid:gid' = Alive_model.mem m ~gid:gid');
        check
          (Option.map (fun (e : Alive_table.entry) -> (e.Alive_table.sn, e.Alive_table.interval))
             (Alive_table.find !t ~gid:gid')
          = Alive_model.find m ~gid:gid');
        check (Alive_table.all_intersect !t cand = Alive_model.all_intersect m cand);
        check (gid_of (Alive_table.first_non_intersecting !t cand) = Alive_model.first_non_intersecting m cand);
        check (Alive_table.min_sn_holds !t ~gid:gid' ~sn:sn' = Alive_model.min_sn_holds m ~gid:gid' ~sn:sn');
        check
          (gid_of (Alive_table.min_sn_blocker !t ~gid:gid' ~sn:sn')
          = Alive_model.min_sn_blocker m ~gid:gid' ~sn:sn')
      done;
      !ok)

(* The E9 finding at table level, and the reason the table keeps one
   interval per entry: a model that keeps every interval of each gid (the
   §4.2 optimization, "several of them might be stored"), checked with a
   fold, decides exactly like the library's table for any candidate that
   ends no earlier than every stored interval (certification candidates
   end at the checking moment). *)
let prop_multi_interval_equivalent =
  QCheck.Test.make ~name:"multi-interval certification = newest-interval certification" ~count:300
    QCheck.(pair (list_of_size (Gen.int_range 1 5) (pair small_nat (list_of_size (Gen.int_range 0 3) small_nat))) small_nat)
    (fun (entries, cand_lo) ->
      let sn n = Sn.make ~ts:(Time.of_int n) ~site:a ~seq:n in
      let single = Alive_table.create () in
      let horizon = ref 0 in
      let model =
        List.mapi
          (fun gid (first_lo, resubs) ->
            let iv lo len =
              horizon := max !horizon (lo + len);
              Interval.make ~lo:(Time.of_int lo) ~hi:(Time.of_int (lo + len))
            in
            let first = iv first_lo 10 in
            Alive_table.insert single ~gid ~sn:(sn gid) ~interval:first;
            (* Each resubmission starts strictly after everything so far. *)
            List.fold_left
              (fun kept len ->
                let next = iv (!horizon + 1) len in
                Alive_table.update_interval single ~gid next;
                next :: kept)
              [ first ] resubs)
          entries
      in
      let candidate =
        Interval.make ~lo:(Time.of_int (min cand_lo !horizon)) ~hi:(Time.of_int (!horizon + 5))
      in
      let model_admits =
        List.fold_left
          (fun ok kept -> ok && List.exists (Interval.intersects candidate) kept)
          true model
      in
      model_admits = Alive_table.all_intersect single candidate)

(* ------------------------------------------------------------------ *)
(* Program unit tests                                                  *)
(* ------------------------------------------------------------------ *)

let test_program () =
  let p = Program.make [ update a 0 1; update b 1 2; select a [ 2 ] ] in
  Alcotest.(check int) "length" 3 (Program.length p);
  Alcotest.(check int) "two sites" 2 (List.length (Program.sites p));
  Alcotest.(check int) "commands at a" 2 (List.length (Program.commands_at p a));
  Alcotest.(check bool) "not read only" false (Program.is_read_only p);
  Alcotest.check_raises "empty" (Invalid_argument "Program.make: empty program") (fun () ->
      ignore (Program.make []))

let () =
  Alcotest.run "core"
    [
      ( "happy-path",
        [
          Alcotest.test_case "single global commit" `Quick test_single_global_commit;
          Alcotest.test_case "read-only commit" `Quick test_read_only_commit;
          Alcotest.test_case "20 sequential commits" `Quick test_many_sequential_commits;
          Alcotest.test_case "concurrent non-conflicting" `Quick test_concurrent_nonconflicting;
          Alcotest.test_case "conflicting, failure-free: 0 aborts" `Quick
            test_concurrent_conflicting_failure_free;
        ] );
      ( "failures",
        [
          Alcotest.test_case "resubmission recovers" `Quick test_resubmission_recovers;
          Alcotest.test_case "balance invariant" `Quick test_balance_invariant_under_failures;
          Alcotest.test_case "site crash recovery" `Quick test_site_crash_recovery;
        ] );
      ( "crash-recovery",
        [
          Alcotest.test_case "crash while prepared" `Quick test_crash_while_prepared_recovers;
          Alcotest.test_case "crash while active" `Quick test_crash_while_active_aborts;
          Alcotest.test_case "crash storm" `Quick test_crash_storm_workload;
          Alcotest.test_case "duplicate votes: no early commit" `Quick test_duplicate_votes_no_early_commit;
          Alcotest.test_case "COMMIT while crashed: decision noted durably" `Quick
            test_commit_while_crashed_noted_durably;
          Alcotest.test_case "fully duplicated network" `Quick test_fully_duplicated_network;
          Alcotest.test_case "agent log: in-doubt set" `Quick test_agent_log_in_doubt;
          Alcotest.test_case "agent log: force-commit idempotent" `Quick
            test_agent_log_force_commit_idempotent;
          Alcotest.test_case "agent log: command order" `Quick test_agent_log_commands_order;
        ] );
      ( "coordinator-crash",
        [
          Alcotest.test_case "legacy: coordinator survives its site" `Quick
            test_crash_coordinating_site_legacy_immortal;
          Alcotest.test_case "crash before decision: presumed abort" `Quick
            test_crash_coordinating_site_presumes_abort;
          Alcotest.test_case "crash after partial COMMIT: termination" `Quick
            test_coordinator_crash_after_partial_commit;
        ] );
      ( "crash-cost",
        [
          QCheck_alcotest.to_alcotest prop_lazy_acceptor_matches_eager;
          Alcotest.test_case "outage drops only pre-crash rounds" `Quick
            test_outage_drops_only_pre_crash_rounds;
        ] );
      ( "certification",
        [
          Alcotest.test_case "naive agent distorts" `Quick test_naive_agent_distorts;
          Alcotest.test_case "full certifier never distorts" `Quick test_full_certifier_never_distorts;
        ] );
      ( "alive-table",
        [
          Alcotest.test_case "operations" `Quick test_alive_table;
          Alcotest.test_case "duplicate insert" `Quick test_alive_table_duplicate;
          Alcotest.test_case "multi-interval optimization" `Quick test_alive_table_multi_interval;
          Alcotest.test_case "min-SN blocker gid tie-break" `Quick test_min_sn_blocker_tie_break;
          QCheck_alcotest.to_alcotest prop_array_table_agrees_with_model;
          QCheck_alcotest.to_alcotest prop_multi_interval_equivalent;
        ] );
      ( "program", [ Alcotest.test_case "basics" `Quick test_program ] );
    ]
