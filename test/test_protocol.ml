(* Tests for hermes.protocol: the pure 2PC machines, the bounded model
   checker, and the byte-identity of the adapter-driven stack with the
   historical imperative implementation.

   The golden digests below were captured from the tree immediately
   BEFORE the machines were extracted (the last all-imperative
   revision): trace JSON + metrics registry JSON + headline counters of
   fixed-seed runs. The refactored stack must reproduce them bit for
   bit — same trace, same metrics, same RNG draws. *)

open Hermes_kernel
module A = Hermes_protocol.Agent_sm
module Csm = Hermes_protocol.Coordinator_sm
module T = Hermes_protocol.Types
module Alive_table = Hermes_protocol.Alive_table
module Explore = Hermes_protocol.Explore
module Config = Hermes_core.Config
module Dtm = Hermes_core.Dtm
module Coordinator = Hermes_core.Coordinator
module Program = Hermes_core.Program
module Engine = Hermes_sim.Engine
module Network = Hermes_net.Network
module Driver = Hermes_workload.Driver
module Spec = Hermes_workload.Spec
module Stats = Hermes_workload.Stats
module Obs = Hermes_obs.Obs
module Tracer = Hermes_obs.Tracer
module Registry = Hermes_obs.Registry
module Experiment = Hermes_harness.Experiment
module Table_fmt = Hermes_harness.Table_fmt

(* ------------------------------------------------------------------ *)
(* Golden byte-identity with the pre-refactor implementation            *)
(* ------------------------------------------------------------------ *)

let digest s = Digest.to_hex (Digest.string s)

let run_digest setup =
  let obs = Obs.create () in
  let r = Driver.run { setup with Driver.obs = Some obs } in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Tracer.to_json_lines (Obs.trace obs));
  Buffer.add_string buf (Registry.to_json (Obs.metrics obs));
  Buffer.add_string buf
    (Fmt.str "committed=%d events=%d ticks=%d stuck=%d" (Stats.committed r.Driver.stats)
       r.Driver.events r.Driver.sim_ticks r.Driver.stuck);
  digest (Buffer.contents buf)

let check_golden name expected actual = Alcotest.(check string) name expected actual

let test_golden_e1 () =
  check_golden "e1 table" "c071b67bdf460dfa42edac7f9d62961c"
    (digest (Table_fmt.to_string (List.assoc "e1" (Experiment.tables ~seeds_of:Fun.id ()) ())))

let test_golden_e5 () =
  check_golden "e5 run" "99cdc870e03bfb9eb99a7b7479910efd"
    (run_digest
       {
         Driver.default_setup with
         Driver.protocol = Driver.Two_pca Config.full;
         seed = 7;
         spec = Spec.make ~n_global:40 ~arrival:(Spec.Closed { mpl = 4; think_time_mean = Spec.think_time Spec.default }) ();
       })

let test_golden_e5_ticket () =
  check_golden "e5 ticket run" "bf850c1359486b1e9dc10ab040527ebf"
    (run_digest
       {
         Driver.default_setup with
         Driver.protocol = Driver.Two_pca Config.ticket;
         seed = 5;
         spec = Spec.make ~n_global:30 ~arrival:(Spec.Closed { mpl = 4; think_time_mean = Spec.think_time Spec.default }) ();
       })

let test_golden_e13 () =
  check_golden "e13 faulty run" "149d901c1c015b6c6f7c212c38701d62"
    (run_digest
       {
         Driver.default_setup with
         Driver.protocol = Driver.Two_pca Config.full;
         seed = 11;
         spec = Spec.make ~n_global:30 ~arrival:(Spec.Closed { mpl = 4; think_time_mean = Spec.think_time Spec.default }) ();
         net =
           {
             Network.default_config with
             Network.faults = { Network.no_faults with Network.drop = 0.05; dup = 0.05 };
           };
         crash_schedule = [ (400_000, 0); (900_000, 1) ];
         reboot_delay = 150_000;
       })

(* Captured under the retired multi-interval certifier (four intervals
   kept per entry), which gave the same digest as [Config.full]: this run
   has no resubmission, so it never reached an older interval. *)
let test_golden_e13_multi_interval () =
  check_golden "e13 multi-interval run" "361cdd24e0fa8a274dd7c59928039fee"
    (run_digest
       {
         Driver.default_setup with
         Driver.protocol = Driver.Two_pca Config.full;
         seed = 3;
         spec = Spec.make ~n_global:25 ~arrival:(Spec.Closed { mpl = 3; think_time_mean = Spec.think_time Spec.default }) ();
         net =
           {
             Network.default_config with
             Network.faults = { Network.no_faults with Network.dup = 0.1 };
           };
       })

(* E9's run at P(abort | prepared) = 0.3, seed 3: 44 resubmissions, each
   replacing an alive interval. The retired multi-interval certifier
   (four intervals kept per entry) gave this same digest, so the
   one-interval table must too. *)
let test_golden_e9 () =
  check_golden "e9 resubmitting run" "3a7cd1b8c9153cb4d41610a3b79dfd1f"
    (run_digest
       {
         Driver.default_setup with
         Driver.protocol = Driver.Two_pca Config.full;
         failure = Hermes_ltm.Failure.prepared_rate 0.3;
         seed = 3;
         spec =
           Spec.make ~n_global:80
             ~arrival:(Spec.Closed { mpl = 8; think_time_mean = Spec.think_time Spec.default })
             ~key_dist:(Spec.Zipf { theta = 0.9 }) ~keys_per_site:12 ~n_tables:2 ();
       })

(* ------------------------------------------------------------------ *)
(* Unit-test scaffolding for driving the machines directly              *)
(* ------------------------------------------------------------------ *)

let cfg = { Config.full with Config.bind_data = false }
let site i = Site.of_int i
let a = site 0
let b = site 1
let coord = Wire.Coordinator 1
let cmd = Command.Select { table = "X"; keys = [ 0 ] }
let mk_sn ?(ts = 0) seq = Sn.make ~ts:(Time.of_int ts) ~site:a ~seq
let v ?(alive = true) ?(last = 0) () = { A.alive; last_op_done = Time.of_int last }

let env ?(now = 0) ?(views = []) ?max_sn ?(inquiry = false) ?(epoch = 0) () =
  {
    A.now = Time.of_int now;
    views = (fun gid -> List.assoc_opt gid views);
    max_committed_sn = max_sn;
    inquiry;
    epoch;
  }

let no_log =
  { A.known = false; prepared = false; committed = false; locally_committed = false;
    rolled_back = false; sn = None }

let deliver ?(cfg = cfg) ?(env = env ()) ?(log = no_log) ?(src = coord) st ~gid payload =
  A.step cfg st (A.Deliver { env; src; gid; payload; log })

(* Effect-list probes. *)
let sends effs =
  List.filter_map (function T.Send { payload; _ } -> Some payload | _ -> None) effs

let has_send effs payload = List.mem payload (sends effs)
let has_arm effs timer = List.exists (function T.Arm_timer { timer = t; _ } -> t = timer | _ -> false) effs
let has_cancel effs timer = List.exists (function T.Cancel_timer t -> t = timer | _ -> false) effs
let has_log effs r = List.exists (function T.Force_log x -> x = r | _ -> false) effs
let has_call effs c = List.exists (function T.Ltm_call x -> x = c | _ -> false) effs

let verdict_of effs =
  List.find_map
    (function T.Emit (A.Ev_prepare_certification { verdict; _ }) -> Some verdict | _ -> None)
    effs

(* Run one subtransaction of [st] from BEGIN to the READY vote; the
   effects are the PREPARE's. *)
let prepared ?(cfg = cfg) ?(gid = 1) ?(now = 0) ?(views = []) ?max_sn ~sn st =
  ignore (deliver ~cfg st ~gid (Wire.Begin { epoch = 0 }));
  ignore (deliver ~cfg st ~gid (Wire.Exec { step = 0; cmd; epoch = 0 }));
  ignore
    (A.step cfg st
       (A.Exec_done
          { env = env (); gid; inc = 0; purpose = A.Reply 0; result = A.Done (Command.Count 1) }));
  let views = if List.mem_assoc gid views then views else (gid, v ~last:now ()) :: views in
  deliver ~cfg ~env:(env ~now ~views ?max_sn ()) st ~gid (Wire.Prepare sn)

(* ------------------------------------------------------------------ *)
(* Agent machine: Appendix B (extended prepare certification)           *)
(* ------------------------------------------------------------------ *)

let test_prepare_ready () =
  let sn = mk_sn 0 in
  let st = A.init ~site:a in
  let effs = prepared ~sn st in
  Alcotest.(check bool) "votes READY" true (has_send effs Wire.Ready);
  Alcotest.(check bool) "verdict V_ready" true (verdict_of effs = Some A.V_ready);
  Alcotest.(check bool) "prepare record forced" true (has_log effs (A.R_prepare { gid = 1; sn }));
  Alcotest.(check bool) "held open" true (has_call effs (A.L_hold_open { gid = 1 }));
  Alcotest.(check bool) "alive timer armed" true (has_arm effs (A.T_alive 1));
  Alcotest.(check int) "table has the entry" 1 (A.n_prepared st)

let test_prepare_extension_refused () =
  (* §5.3: a bigger-SN subtransaction already committed here. *)
  let st = A.init ~site:a in
  let effs = prepared ~sn:(mk_sn 1) ~max_sn:(mk_sn 5) st in
  Alcotest.(check bool) "refuses" true (has_send effs (Wire.Refuse Wire.Extension_refused));
  (match verdict_of effs with
  | Some (A.V_refused_extension { committed_sn }) ->
      Alcotest.(check bool) "witness is the committed SN" true (Sn.equal committed_sn (mk_sn 5))
  | _ -> Alcotest.fail "expected V_refused_extension");
  Alcotest.(check bool) "local abort" true (has_call effs (A.L_abort { gid = 1 }));
  Alcotest.(check int) "no table entry" 0 (A.n_prepared st)

let test_prepare_interval_refused () =
  (* §4.2: the candidate's alive interval [5,5] misses the prepared
     entry's [0,0]; the entry's txn is no longer alive, so the
     refresh-on-certify pass cannot save it. *)
  let st = A.init ~site:a in
  ignore (prepared ~gid:1 ~sn:(mk_sn 0) st);
  let views = [ (1, v ~alive:false ()); (2, v ~last:5 ()) ] in
  let effs = prepared ~gid:2 ~sn:(mk_sn 1) ~now:5 ~views st in
  Alcotest.(check bool) "refuses" true (has_send effs (Wire.Refuse Wire.Interval_refused));
  match verdict_of effs with
  | Some (A.V_refused_interval { conflicting_gid; _ }) ->
      Alcotest.(check int) "conflicting entry" 1 conflicting_gid
  | _ -> Alcotest.fail "expected V_refused_interval"

let test_prepare_refresh_saves_alive_neighbour () =
  (* Same geometry, but the neighbour is still alive: refresh-on-certify
     extends its interval to now and the intersection succeeds. *)
  let st = A.init ~site:a in
  ignore (prepared ~gid:1 ~sn:(mk_sn 0) st);
  let views = [ (1, v ()); (2, v ~last:5 ()) ] in
  let effs = prepared ~gid:2 ~sn:(mk_sn 1) ~now:5 ~views st in
  Alcotest.(check bool) "votes READY" true (has_send effs Wire.Ready)

let test_prepare_dead_refused () =
  (* CI(2): a unilaterally aborted subtransaction is never prepared. *)
  let views = [ (1, v ~alive:false ()) ] in
  let effs = prepared ~gid:1 ~sn:(mk_sn 0) ~views (A.init ~site:a) in
  Alcotest.(check bool) "refuses" true (has_send effs (Wire.Refuse Wire.Dead_refused));
  Alcotest.(check bool) "verdict V_refused_dead" true (verdict_of effs = Some A.V_refused_dead)

let test_prepare_duplicate_revotes () =
  let st = A.init ~site:a in
  ignore (prepared ~sn:(mk_sn 0) st);
  let effs = deliver st ~gid:1 (Wire.Prepare (mk_sn 0)) in
  Alcotest.(check bool) "repeats READY" true (has_send effs Wire.Ready);
  Alcotest.(check bool) "no second prepare record" true
    (not (has_log effs (A.R_prepare { gid = 1; sn = mk_sn 0 })))

(* ------------------------------------------------------------------ *)
(* Agent machine: Appendix A (alive check) and resubmission             *)
(* ------------------------------------------------------------------ *)

let test_alive_check_extends_interval () =
  let st = A.init ~site:a in
  ignore (prepared ~sn:(mk_sn 0) st);
  let effs = A.step cfg st (A.Alive_fired { env = env ~now:7 ~views:[ (1, v ()) ] (); gid = 1 }) in
  Alcotest.(check bool) "re-arms" true (has_arm effs (A.T_alive 1));
  (match Alive_table.find st.A.table ~gid:1 with
  | Some e ->
      Alcotest.(check int) "interval extended to now" 7
        (Time.to_int (Interval.hi e.Alive_table.interval))
  | None -> Alcotest.fail "entry vanished");
  match List.find_map (function T.Emit (A.Ev_alive_check { alive; _ }) -> Some alive | _ -> None) effs with
  | Some alive -> Alcotest.(check bool) "reported alive" true alive
  | None -> Alcotest.fail "no alive-check event"

let test_alive_check_triggers_resubmission () =
  let st = A.init ~site:a in
  ignore (prepared ~sn:(mk_sn 0) st);
  let effs =
    A.step cfg st (A.Alive_fired { env = env ~now:7 ~views:[ (1, v ~alive:false ()) ] (); gid = 1 })
  in
  Alcotest.(check bool) "begins a fresh incarnation" true (has_call effs (A.L_begin { gid = 1; inc = 1 }));
  Alcotest.(check bool) "incarnation noted" true (has_log effs (A.R_incarnation { gid = 1; inc = 1 }));
  Alcotest.(check bool) "replays the logged command" true
    (has_call effs (A.L_exec { gid = 1; inc = 1; purpose = A.Feed; cmd }));
  Alcotest.(check bool) "still re-arms the alive check" true (has_arm effs (A.T_alive 1))

let test_alive_check_during_local_commit () =
  (* The LTM commits at once and calls back later, so an alive check in
     between finds the committed transaction not alive. Resubmitting it
     then would commit the subtransaction a second time: the check only
     re-arms. *)
  let st = A.init ~site:a in
  ignore (prepared ~sn:(mk_sn 0) st);
  let commit = deliver ~env:(env ~views:[ (1, v ()) ] ()) st ~gid:1 Wire.Commit in
  Alcotest.(check bool) "the local commit goes out" true
    (has_call commit (A.L_commit { gid = 1; inc = 0 }));
  let effs =
    A.step cfg st (A.Alive_fired { env = env ~now:7 ~views:[ (1, v ~alive:false ()) ] (); gid = 1 })
  in
  Alcotest.(check bool) "only re-arms" true
    (effs = [ T.Arm_timer { timer = A.T_alive 1; delay = A.alive_check_interval } ])

(* The explorer's projection of a whole machine state: two states with
   equal views are the same state to the model checker. *)
let agent_view st = Explore.canon_agent (0, st)
let coord_view st = Explore.canon_coord (0, st)

(* A view holds the machine's mutable records themselves; its bytes are
   what it shows now. *)
let snapshot view st = Marshal.to_string (view st) [ Marshal.No_sharing ]

let test_step_on_copy_leaves_state () =
  (* [step] updates its input state in place; a caller that branches
     from [st] steps on [A.copy st], and [st] stays as it was — its
     subtransaction, its alive table and its buffers — here through an
     alive check that extends the interval, and a COMMIT whose
     local-commit release removes the subtransaction and its entry. *)
  let st = A.init ~site:a in
  ignore (prepared ~sn:(mk_sn 0) st);
  let before = snapshot agent_view st in
  let views = [ (1, v ()) ] in
  let alive_check st = A.step cfg st (A.Alive_fired { env = env ~now:7 ~views (); gid = 1 }) in
  let st1 = A.copy st in
  let effs1 = alive_check st1 in
  Alcotest.(check bool) "the copy moved on" true (snapshot agent_view st1 <> before);
  Alcotest.(check bool) "st unchanged by the alive check" true (snapshot agent_view st = before);
  let st2 = A.copy st in
  ignore (deliver st2 ~gid:1 Wire.Commit);
  Alcotest.(check bool) "st unchanged by the COMMIT" true (snapshot agent_view st = before);
  ignore (A.step cfg st2 (A.Commit_done { env = env ~views (); gid = 1; inc = 0; committed = true }));
  Alcotest.(check int) "the copy's entry is gone" 0 (A.n_prepared st2);
  Alcotest.(check bool) "st unchanged by the commit" true (snapshot agent_view st = before);
  (* and st itself still steps like it did the first time *)
  let effs = alive_check st in
  Alcotest.(check bool) "same effects as the copy's" true (effs = effs1);
  Alcotest.(check bool) "same successor as the copy's" true (agent_view st = agent_view st1)

(* ------------------------------------------------------------------ *)
(* Agent machine: Appendix C (commit certification)                     *)
(* ------------------------------------------------------------------ *)

let test_commit_certification_delays_and_releases () =
  (* T1 holds sn 0, T2 holds sn 1: T2's COMMIT must wait for T1. *)
  let st = A.init ~site:a in
  ignore (prepared ~gid:1 ~sn:(mk_sn 0) st);
  ignore (prepared ~gid:2 ~sn:(mk_sn 1) ~views:[ (1, v ()); (2, v ()) ] st);
  let both = [ (1, v ()); (2, v ()) ] in
  let effs = deliver ~env:(env ~views:both ()) st ~gid:2 Wire.Commit in
  (match
     List.find_map
       (function T.Emit (A.Ev_commit_delayed { blocking_gid; _ }) -> Some blocking_gid | _ -> None)
       effs
   with
  | Some blocking -> Alcotest.(check int) "blocked by T1" 1 blocking
  | None -> Alcotest.fail "expected Ev_commit_delayed");
  Alcotest.(check bool) "retry armed" true (has_arm effs (A.T_commit_retry 2));
  Alcotest.(check bool) "no local commit yet" true (not (has_call effs (A.L_commit { gid = 2; inc = 0 })));
  (* T1 commits and leaves the table... *)
  let effs1 = deliver ~env:(env ~views:both ()) st ~gid:1 Wire.Commit in
  Alcotest.(check bool) "T1 commits immediately" true (has_call effs1 (A.L_commit { gid = 1; inc = 0 }));
  let effs1d =
    A.step cfg st (A.Commit_done { env = env ~views:both (); gid = 1; inc = 0; committed = true })
  in
  Alcotest.(check bool) "T1 acks" true (has_send effs1d Wire.Commit_ack);
  Alcotest.(check bool) "T1 cancels its alive timer" true (has_cancel effs1d (A.T_alive 1));
  (* ... and the retry releases T2. *)
  let effs2 = A.step cfg st (A.Retry_fired { env = env ~views:both (); gid = 2 }) in
  Alcotest.(check bool) "commit record forced" true (has_log effs2 (A.R_commit { gid = 2 }));
  Alcotest.(check bool) "local commit released" true (has_call effs2 (A.L_commit { gid = 2; inc = 0 }))

let test_commit_unknown_uncommitted_fails () =
  Alcotest.check_raises "protocol violation trips the machine"
    (Failure "agent a: COMMIT for unknown, uncommitted T9") (fun () ->
      ignore (deliver (A.init ~site:a) ~gid:9 Wire.Commit))

(* ------------------------------------------------------------------ *)
(* Agent machine: the in-doubt termination protocol                     *)
(* ------------------------------------------------------------------ *)

let ienv ?(now = 0) ?(views = []) () = env ~now ~views ~inquiry:true ()

(* Prepare with the termination protocol engaged (env.inquiry = true). *)
let prepared_inquiring ?(gid = 1) st =
  ignore (deliver st ~gid (Wire.Begin { epoch = 0 }));
  ignore (deliver st ~gid (Wire.Exec { step = 0; cmd; epoch = 0 }));
  ignore
    (A.step cfg st
       (A.Exec_done
          { env = ienv (); gid; inc = 0; purpose = A.Reply 0; result = A.Done (Command.Count 1) }));
  deliver ~env:(ienv ~views:[ (gid, v ()) ] ()) st ~gid (Wire.Prepare (mk_sn 0))

let test_inquiry_armed_on_prepare () =
  let effs = prepared_inquiring (A.init ~site:a) in
  Alcotest.(check bool) "votes READY" true (has_send effs Wire.Ready);
  Alcotest.(check bool) "in-doubt window opened" true
    (List.exists (function T.Emit (A.Ev_in_doubt { gid = 1 }) -> true | _ -> false) effs);
  Alcotest.(check bool) "inquiry timer armed" true (has_arm effs (A.T_inquiry 1));
  (* Without the termination protocol the prepare is identical minus the
     inquiry timer. *)
  let effs' = prepared ~sn:(mk_sn 0) (A.init ~site:a) in
  Alcotest.(check bool) "no inquiry timer without env.inquiry" true
    (not (has_arm effs' (A.T_inquiry 1)))

let test_inquiry_fires_sends_decision_req () =
  let st = A.init ~site:a in
  ignore (prepared_inquiring st);
  let effs = A.step cfg st (A.Inquiry_fired { env = ienv ~now:60_000 (); gid = 1 }) in
  Alcotest.(check bool) "asks the coordinator" true (has_send effs Wire.Decision_req);
  Alcotest.(check bool) "re-arms itself" true (has_arm effs (A.T_inquiry 1));
  Alcotest.(check bool) "inquiry counted" true
    (List.exists
       (function T.Emit (A.Ev_decision_inquiry { gid = 1; inquiries = 1 }) -> true | _ -> false)
       effs);
  (* A second firing asks again. *)
  let effs2 = A.step cfg st (A.Inquiry_fired { env = ienv ~now:120_000 (); gid = 1 }) in
  Alcotest.(check bool) "asks again" true (has_send effs2 Wire.Decision_req)

let test_decision_resp_translates_to_commit () =
  let st = A.init ~site:a in
  ignore (prepared_inquiring st);
  let effs =
    deliver ~env:(ienv ~now:7 ~views:[ (1, v ()) ] ()) st ~gid:1 (Wire.Decision_resp { committed = true })
  in
  Alcotest.(check bool) "commit record forced" true (has_log effs (A.R_commit { gid = 1 }));
  Alcotest.(check bool) "local commit driven" true (has_call effs (A.L_commit { gid = 1; inc = 0 }));
  Alcotest.(check bool) "in-doubt window closed (7 ticks)" true
    (List.exists
       (function
         | T.Emit (A.Ev_decision { gid = 1; committed = true; in_doubt = 7 }) -> true
         | _ -> false)
       effs);
  Alcotest.(check bool) "inquiry timer cancelled" true (has_cancel effs (A.T_inquiry 1))

let test_decision_resp_translates_to_rollback () =
  let st = A.init ~site:a in
  ignore (prepared_inquiring st);
  let effs =
    deliver ~env:(ienv ~now:9 ()) st ~gid:1 (Wire.Decision_resp { committed = false })
  in
  Alcotest.(check bool) "local abort" true (has_call effs (A.L_abort { gid = 1 }));
  Alcotest.(check bool) "acks the rollback" true (has_send effs Wire.Rollback_ack);
  Alcotest.(check bool) "in-doubt window closed" true
    (List.exists
       (function T.Emit (A.Ev_decision { gid = 1; committed = false; _ }) -> true | _ -> false)
       effs)

let test_recovery_replay_commits_once () =
  (* Crash a prepared-and-decided subtransaction, recover it from the log
     and let the replay finish: exactly one commit record and one local
     commit, and a duplicate COMMIT arriving afterwards is a no-op. *)
  let st = A.init ~site:a in
  ignore (prepared ~sn:(mk_sn 0) st);
  ignore (deliver ~env:(env ~views:[ (1, v ()) ] ()) st ~gid:1 Wire.Commit);
  ignore (A.step cfg st (A.Crash { live = 1 }));
  Alcotest.(check int) "volatile state gone" 0 (A.n_prepared st);
  let entry =
    {
      A.r_gid = 1;
      r_coordinator = coord;
      r_inc = 0;
      r_sn = Some (mk_sn 0);
      r_commands = [ cmd ];
      r_committed = true;
    }
  in
  let effs = A.step cfg st (A.Recover { env = env ~now:10 (); entries = [ entry ] }) in
  Alcotest.(check bool) "recovered event" true
    (List.exists
       (function T.Emit (A.Ev_recovered { gid = 1; committed = true }) -> true | _ -> false)
       effs);
  Alcotest.(check bool) "decided entry is not re-announced in doubt" true
    (not (List.exists (function T.Emit (A.Ev_in_doubt _) -> true | _ -> false) effs));
  Alcotest.(check bool) "replays the logged command" true
    (has_call effs (A.L_exec { gid = 1; inc = 1; purpose = A.Feed; cmd }));
  (* Replay completes: the commit is redone exactly once. *)
  let effs =
    A.step cfg st
      (A.Exec_done
         { env = env ~now:11 ~views:[ (1, v ()) ] (); gid = 1; inc = 1; purpose = A.Feed;
           result = A.Done (Command.Count 1) })
  in
  Alcotest.(check bool) "commit record re-forced" true (has_log effs (A.R_commit { gid = 1 }));
  Alcotest.(check bool) "local commit redone" true (has_call effs (A.L_commit { gid = 1; inc = 1 }));
  (* A duplicate COMMIT while the redo is in flight changes nothing. *)
  let effs_dup = deliver ~env:(env ~now:12 ~views:[ (1, v ()) ] ()) st ~gid:1 Wire.Commit in
  Alcotest.(check bool) "duplicate COMMIT is a no-op" true (effs_dup = [])

let test_recovery_undecided_rearms_inquiry () =
  (* An undecided recovered entry reopens its in-doubt window and, with
     the termination protocol engaged, restarts the inquiry timer. *)
  let entry =
    {
      A.r_gid = 4;
      r_coordinator = Wire.Coordinator 4;
      r_inc = 2;
      r_sn = Some (mk_sn 1);
      r_commands = [ cmd ];
      r_committed = false;
    }
  in
  let st = A.init ~site:a in
  (* [st] is stepped again below, so this step runs on a copy *)
  let effs = A.step cfg (A.copy st) (A.Recover { env = ienv ~now:50 (); entries = [ entry ] }) in
  Alcotest.(check bool) "back in doubt" true
    (List.exists (function T.Emit (A.Ev_in_doubt { gid = 4 }) -> true | _ -> false) effs);
  Alcotest.(check bool) "inquiry timer restarted" true (has_arm effs (A.T_inquiry 4));
  (* Without the termination protocol: in doubt, but no inquiry timer. *)
  let effs' = A.step cfg st (A.Recover { env = env ~now:50 (); entries = [ entry ] }) in
  Alcotest.(check bool) "no inquiry timer without env.inquiry" true
    (not (has_arm effs' (A.T_inquiry 4)))

(* ------------------------------------------------------------------ *)
(* Coordinator machine: 2PC decision rules                              *)
(* ------------------------------------------------------------------ *)

let ccfg ?quorum () = Csm.config ?quorum cfg

let coord_init () =
  Csm.init ~gid:1 ~site:a ~participants:[ a; b ] ~steps:[ (a, cmd); (b, cmd) ] ~sn:None

let cstep ?quorum st input = Csm.step (ccfg ?quorum ()) st input

(* A participant's reply to the one command it was sent. *)
let exec_ok src = Csm.From_agent { src; payload = Wire.Exec_ok { step = 0; result = Command.Count 1 } }

let csends effs = List.filter_map (function T.Send { dst; payload; _ } -> Some (dst, payload) | _ -> None) effs

(* Drive the coordinator to the Preparing phase. *)
let preparing ?quorum () =
  let st = coord_init () in
  ignore (cstep ?quorum st Csm.Start);
  ignore (cstep ?quorum st (exec_ok a));
  let effs = cstep ?quorum st (exec_ok b) in
  Alcotest.(check bool) "gate invoked" true (List.mem T.Invoke_gate effs);
  let effs = cstep ?quorum st (Csm.Gate_opened { sn = Some (mk_sn 0); lossy = false }) in
  Alcotest.(check bool) "PREPARE to both" true
    (List.length (List.filter (fun (_, p) -> p = Wire.Prepare (mk_sn 0)) (csends effs)) = 2);
  st

let test_coordinator_step_on_copy_leaves_state () =
  (* The coordinator's contract is the agent's: a copy collects both
     votes and decides, while [st] still waits for them, and stepping
     [st] itself then reaches the copy's successor with its effects. *)
  let st = preparing () in
  let before = snapshot coord_view st in
  let vote st src = cstep st (Csm.From_agent { src; payload = Wire.Ready }) in
  let c = Csm.copy st in
  ignore (vote c a);
  let effs = vote c b in
  Alcotest.(check bool) "the copy decided" true
    (List.exists (function T.Force_log (Csm.R_decision { committed = true }) -> true | _ -> false) effs);
  Alcotest.(check bool) "st unchanged" true (snapshot coord_view st = before);
  ignore (vote st a);
  let effs' = vote st b in
  Alcotest.(check bool) "same effects as the copy's" true (effs' = effs);
  Alcotest.(check bool) "same successor as the copy's" true (coord_view st = coord_view c)

let test_coordinator_happy_path () =
  let effs = cstep (coord_init ()) Csm.Start in
  Alcotest.(check bool) "BEGIN broadcast" true
    (List.length (List.filter (fun (_, p) -> p = Wire.Begin { epoch = 0 }) (csends effs)) = 2);
  Alcotest.(check bool) "first command out" true
    (has_send effs (Wire.Exec { step = 0; cmd; epoch = 0 }));
  Alcotest.(check bool) "exec timeout armed" true (has_arm effs Csm.Exec_timeout)

let test_coordinator_commit_requires_both_votes () =
  let st = preparing () in
  let effs = cstep st (Csm.From_agent { src = a; payload = Wire.Ready }) in
  Alcotest.(check bool) "one vote: no decision" true (sends effs = []);
  (* A duplicated READY from the same site must not complete the quorum. *)
  let effs = cstep st (Csm.From_agent { src = a; payload = Wire.Ready }) in
  Alcotest.(check bool) "duplicate vote ignored" true (sends effs = []);
  let effs = cstep st (Csm.From_agent { src = b; payload = Wire.Ready }) in
  Alcotest.(check bool) "COMMIT broadcast" true
    (List.length (List.filter (fun (_, p) -> p = Wire.Commit) (csends effs)) = 2);
  Alcotest.(check bool) "global commit recorded" true
    (List.exists (function T.Record (T.H_global_commit _) -> true | _ -> false) effs);
  (* Acks complete the decision. *)
  let effs = cstep st (Csm.From_agent { src = a; payload = Wire.Commit_ack }) in
  Alcotest.(check bool) "one ack: not finished" true
    (not (List.exists (function T.Decide _ -> true | _ -> false) effs));
  let effs = cstep st (Csm.From_agent { src = b; payload = Wire.Commit_ack }) in
  Alcotest.(check bool) "decides Committed" true (List.mem (T.Decide T.Committed) effs)

let test_coordinator_counted_quorum_bug () =
  (* The historical fake-quorum bug, reproduced as a unit test: under
     [Counted], two copies of the same READY decide the commit. *)
  let st = preparing ~quorum:Csm.Counted () in
  ignore (cstep ~quorum:Csm.Counted st (Csm.From_agent { src = a; payload = Wire.Ready }));
  let effs = cstep ~quorum:Csm.Counted st (Csm.From_agent { src = a; payload = Wire.Ready }) in
  Alcotest.(check bool) "duplicate READY fakes the quorum" true
    (List.exists (fun (_, p) -> p = Wire.Commit) (csends effs))

let test_coordinator_refusal_aborts () =
  let st = preparing () in
  ignore (cstep st (Csm.From_agent { src = a; payload = Wire.Refuse Wire.Interval_refused }));
  let effs = cstep st (Csm.From_agent { src = b; payload = Wire.Ready }) in
  Alcotest.(check bool) "ROLLBACK broadcast" true
    (List.length (List.filter (fun (_, p) -> p = Wire.Rollback) (csends effs)) = 2);
  ignore (cstep st (Csm.From_agent { src = a; payload = Wire.Rollback_ack }));
  let effs = cstep st (Csm.From_agent { src = b; payload = Wire.Rollback_ack }) in
  Alcotest.(check bool) "decides Aborted(Refused)" true
    (List.exists
       (function T.Decide (T.Aborted (T.Refused (s, Wire.Interval_refused))) -> Site.equal s a | _ -> false)
       effs)

let test_coordinator_exec_timeout_aborts () =
  let st = coord_init () in
  ignore (cstep st Csm.Start);
  let effs = cstep st Csm.Exec_timeout_fired in
  Alcotest.(check bool) "ROLLBACK broadcast" true
    (List.exists (fun (_, p) -> p = Wire.Rollback) (csends effs));
  Alcotest.(check bool) "abort reason names the silent site" true
    (List.exists
       (function T.Emit (Csm.Deciding_abort (T.Exec_failed (s, _))) -> Site.equal s a | _ -> false)
       effs)

(* ------------------------------------------------------------------ *)
(* Coordinator machine: durability and crash recovery                   *)
(* ------------------------------------------------------------------ *)

let test_coordinator_force_log_records () =
  (* The two force points of the symmetric coordinator log: the
     participant set at PREPARE-send, the decision at decide time (the
     begin record rides along at Start). *)
  let effs = cstep (coord_init ()) Csm.Start in
  Alcotest.(check bool) "begin record forced at Start" true
    (List.exists
       (function T.Force_log (Csm.R_begin { participants = [ x; y ] }) -> x = a && y = b | _ -> false)
       effs);
  let st = coord_init () in
  ignore (cstep st Csm.Start);
  ignore (cstep st (exec_ok a));
  ignore (cstep st (exec_ok b));
  let effs = cstep st (Csm.Gate_opened { sn = Some (mk_sn 0); lossy = false }) in
  Alcotest.(check bool) "prepared record forced before the PREPAREs" true
    (List.exists
       (function T.Force_log (Csm.R_prepared { sn; _ }) -> Sn.equal sn (mk_sn 0) | _ -> false)
       effs);
  ignore (cstep st (Csm.From_agent { src = a; payload = Wire.Ready }));
  let effs = cstep st (Csm.From_agent { src = b; payload = Wire.Ready }) in
  Alcotest.(check bool) "decision record forced with the COMMITs" true
    (List.exists (function T.Force_log (Csm.R_decision { committed = true }) -> true | _ -> false) effs)

let test_coordinator_crash_then_recover_redrives_commit () =
  (* Crash after the COMMIT decision: recovery from the logged decision
     re-broadcasts COMMIT until both participants acknowledge. *)
  let st = preparing () in
  ignore (cstep st (Csm.From_agent { src = a; payload = Wire.Ready }));
  ignore (cstep st (Csm.From_agent { src = b; payload = Wire.Ready }));
  ignore (cstep st (Csm.From_agent { src = a; payload = Wire.Commit_ack }));
  let crash_effs = cstep st Csm.Crash in
  Alcotest.(check bool) "crash silences the retransmit timer" true
    (has_cancel crash_effs Csm.Retransmit);
  let effs =
    cstep st (Csm.Recover { participants = [ a; b ]; sn = Some (mk_sn 0); decision = Some true })
  in
  Alcotest.(check bool) "recovered with the commit decision" true
    (List.exists (function T.Emit (Csm.Recovered { decision = Some true }) -> true | _ -> false) effs);
  Alcotest.(check int) "COMMIT re-driven to every participant" 2
    (List.length (List.filter (fun (_, p) -> p = Wire.Commit) (csends effs)));
  Alcotest.(check bool) "retransmission armed" true (has_arm effs Csm.Retransmit);
  (* Fresh acks (the pre-crash ack set is volatile and lost) finish it. *)
  ignore (cstep st (Csm.From_agent { src = a; payload = Wire.Commit_ack }));
  let effs = cstep st (Csm.From_agent { src = b; payload = Wire.Commit_ack }) in
  Alcotest.(check bool) "decides Committed" true (List.mem (T.Decide T.Committed) effs)

let test_coordinator_recover_presumes_abort () =
  (* Crash between PREPARE and the decision: no decision record, so
     recovery presumes abort and tells the in-doubt participants. *)
  let st = preparing () in
  ignore (cstep st (Csm.From_agent { src = a; payload = Wire.Ready }));
  ignore (cstep st Csm.Crash);
  let effs =
    cstep st (Csm.Recover { participants = [ a; b ]; sn = Some (mk_sn 0); decision = None })
  in
  Alcotest.(check bool) "presumed-abort decision forced" true
    (List.exists (function T.Force_log (Csm.R_decision { committed = false }) -> true | _ -> false) effs);
  Alcotest.(check int) "ROLLBACK to every participant" 2
    (List.length (List.filter (fun (_, p) -> p = Wire.Rollback) (csends effs)));
  ignore (cstep st (Csm.From_agent { src = a; payload = Wire.Rollback_ack }));
  let effs = cstep st (Csm.From_agent { src = b; payload = Wire.Rollback_ack }) in
  Alcotest.(check bool) "decides Aborted(Presumed_abort)" true
    (List.mem (T.Decide (T.Aborted T.Presumed_abort)) effs)

let test_coordinator_answers_decision_req () =
  (* The termination protocol's server side: once decided, DECISION-REQ
     gets the decision; while still undecided it is silently absorbed
     (the asker's timer re-fires). *)
  let st = preparing () in
  let effs = cstep st (Csm.From_agent { src = a; payload = Wire.Decision_req }) in
  Alcotest.(check bool) "undecided: no answer yet" true (csends effs = []);
  ignore (cstep st (Csm.From_agent { src = a; payload = Wire.Ready }));
  ignore (cstep st (Csm.From_agent { src = b; payload = Wire.Ready }));
  let effs = cstep st (Csm.From_agent { src = b; payload = Wire.Decision_req }) in
  Alcotest.(check bool) "committed answer to the asker" true
    (List.mem (Wire.Agent b, Wire.Decision_resp { committed = true }) (csends effs));
  Alcotest.(check bool) "inquiry answered event" true
    (List.exists
       (function
         | T.Emit (Csm.Answering_inquiry { asker; committed = true }) -> Site.equal asker b
         | _ -> false)
       effs)

(* ------------------------------------------------------------------ *)
(* Retired rounds: the coordinator log answers for a finished machine   *)
(* ------------------------------------------------------------------ *)

module Coordinator_log = Hermes_protocol.Coordinator_log

(* Drive a one-participant round to its finish with the given decision,
   writing its forced records into a fresh coordinator log as the adapter
   does. *)
let finished_round ~gid ~participant ~committed =
  let log = Coordinator_log.create () in
  let st =
    Csm.init ~gid ~site:a ~participants:[ participant ] ~steps:[ (participant, cmd) ] ~sn:None
  in
  let step input =
    List.iter
      (function T.Force_log r -> Coordinator_log.apply log ~gid r | _ -> ())
      (cstep st input)
  in
  let reply payload = Csm.From_agent { src = participant; payload } in
  step Csm.Start;
  step (reply (Wire.Exec_ok { step = 0; result = Command.Count 1 }));
  step (Csm.Gate_opened { sn = Some (mk_sn 0); lossy = false });
  step (reply (if committed then Wire.Ready else Wire.Refuse Wire.Interval_refused));
  step (reply (if committed then Wire.Commit_ack else Wire.Rollback_ack));
  (st, log)

(* One payload of every constructor. *)
let every_payload ~participant ~committed =
  let sn = mk_sn 3 in
  [
    Wire.Begin { epoch = 0 };
    Wire.Exec { step = 0; cmd; epoch = 0 };
    Wire.Exec_ok { step = 0; result = Command.Count 1 };
    Wire.Exec_failed { step = 0; reason = "late" };
    Wire.Prepare sn;
    Wire.Ready;
    Wire.Ready_certified { sn };
    Wire.Refuse Wire.Dead_refused;
    Wire.Commit;
    Wire.Commit_certified { voters = [ participant ] };
    Wire.Rollback;
    Wire.Rollback_certified;
    Wire.Commit_ack;
    Wire.Rollback_ack;
    Wire.Decision_req;
    Wire.Decision_resp { committed };
    Wire.Px_accept { ballot = 0; committed };
    Wire.Px_accepted { ballot = 0; idx = 1 };
    Wire.Px_query { ballot = 2 };
    Wire.Px_promise { ballot = 2; promised = 2; accepted = Some (0, committed); idx = 1 };
    Wire.Px_decision { committed };
  ]

(* The stand-in for a retired coordinator reads the decision from the
   log and answers every message, from an agent or an acceptor, with the
   effects its finished machine produces for it — and has no answer
   exactly where the machine fails. *)
let prop_retired_reply_is_the_finished_machine =
  QCheck.Test.make ~name:"a retired round answers like its finished machine" ~count:1000
    QCheck.(quad (int_range 1 1_000_000) bool (int_range 0 63) (int_range 0 4))
    (fun (gid, committed, s, idx) ->
      let participant = site s in
      let st, log = finished_round ~gid ~participant ~committed in
      let agent payload = Csm.From_agent { src = participant; payload } in
      let acceptor payload = Csm.From_acceptor { idx; payload } in
      (* every message is put to the same finished machine *)
      let agrees (src, input) payload =
        let machine =
          match cstep (Csm.copy st) (input payload) with
          | effs -> Some effs
          | exception Failure _ -> None
        in
        let msg = { Wire.src; dst = Wire.Coordinator gid; gid; payload } in
        machine = Coordinator.retired_reply ~log ~gid msg
      in
      st.Csm.finished
      && cstep (Csm.copy st) (agent Wire.Decision_req)
         |> List.mem
              (T.Send
                 { dst = Wire.Agent participant; gid; payload = Wire.Decision_resp { committed } })
      && List.for_all
           (fun src -> List.for_all (agrees src) (every_payload ~participant ~committed))
           [ (Wire.Agent participant, agent); (Wire.Acceptor { gid; idx }, acceptor) ])

(* ------------------------------------------------------------------ *)
(* The bounded model checker                                            *)
(* ------------------------------------------------------------------ *)

let check_clean name (st : Explore.stats) =
  Alcotest.(check bool) (name ^ ": exhausted") false st.Explore.truncated;
  Alcotest.(check int) (name ^ ": no violations") 0 st.Explore.n_violations;
  Alcotest.(check bool) (name ^ ": reached terminals") true (st.Explore.terminals > 0)

let test_explore_reorderings_clean () =
  (* Every message reordering of two concurrent transactions over two
     sites, plus blocked-commit retries: exhaustive and violation-free. *)
  let st =
    Explore.run
      {
        Explore.default with
        Explore.budgets = { Explore.no_faults with Explore.commit_retries = 2 };
      }
  in
  check_clean "2x2 reorderings" st;
  Alcotest.(check bool) "nontrivial space" true (st.Explore.states > 10_000)

let test_explore_faults_clean () =
  (* One transaction under the full fault mix: a unilateral abort, an
     alive-check firing, a commit retry and a crash+recovery point
     anywhere in the schedule. *)
  let st =
    Explore.run
      {
        Explore.default with
        Explore.n_txns = 1;
        budgets =
          {
            Explore.no_faults with
            Explore.uaborts = 1;
            alive_fires = 1;
            commit_retries = 1;
            crashes = 1;
          };
      }
  in
  check_clean "2x1 faults" st

let test_explore_losses_clean () =
  (* One transaction on a lossy network: any single message dropped,
     with PREPARE/decision retransmission and the exec timeout. *)
  let st =
    Explore.run
      {
        Explore.default with
        Explore.n_txns = 1;
        budgets =
          {
            Explore.no_faults with
            Explore.drops = 1;
            retransmits = 2;
            exec_timeouts = 1;
          };
      }
  in
  check_clean "2x1 losses" st

let fake_quorum_scenario quorum =
  {
    Explore.default with
    Explore.n_txns = 1;
    quorum;
    budgets = { Explore.no_faults with Explore.dups = 1 };
  }

let test_explore_finds_fake_quorum () =
  (* Regression for the duplicate-READY fake-quorum bug: with votes
     reverted to a raw counter, the checker must rediscover it. *)
  let st = Explore.run (fake_quorum_scenario Csm.Counted) in
  Alcotest.(check bool) "violations found" true (st.Explore.n_violations > 0);
  Alcotest.(check bool) "counterexamples reported" true (st.Explore.violations <> [])

let test_explore_dedup_quorum_clean () =
  (* The fix (per-site vote dedup) survives the same adversary. *)
  check_clean "2x1 dup votes" (Explore.run (fake_quorum_scenario Csm.Dedup))

let coord_crash_scenario ~termination =
  {
    Explore.default with
    Explore.n_txns = 1;
    termination;
    budgets =
      { Explore.no_faults with Explore.coord_crashes = 1; inquiries = 1; retransmits = 1 };
  }

let test_explore_coord_crash_clean () =
  (* A coordinator crash anywhere in the schedule, with log-based
     recovery and the termination protocol: exhaustive and clean (every
     terminal state resolves its in-doubt entries). *)
  let st = Explore.run (coord_crash_scenario ~termination:true) in
  check_clean "2x1 coordinator crash" st

let test_explore_no_termination_blocks_forever () =
  (* Ablation: the coordinator stays dead and nobody asks — the I5
     liveness invariant must find a terminal state with a forever-blocked
     in-doubt participant. *)
  let st = Explore.run (coord_crash_scenario ~termination:false) in
  Alcotest.(check bool) "violations found" true (st.Explore.n_violations > 0);
  Alcotest.(check bool) "an I5 counterexample is reported" true
    (List.exists
       (fun (msg, _) -> String.length msg >= 2 && String.sub msg 0 2 = "I5")
       st.Explore.violations)

let reconfigure_scenario ~handover =
  (* Two single-shard transactions on two sites so a shard move can gain
     a site that is NOT a native participant — the only shape where the
     I6(b) handover obligation bites (a participating gainer certifies
     the gid through its own prepare path). *)
  {
    Explore.default with
    Explore.n_txns = 2;
    txn_shards = 1;
    handover;
    budgets = { Explore.no_faults with Explore.reconfigures = 1 };
  }

let test_explore_reconfigure_clean () =
  (* An online shard move anywhere in the schedule, with prepared-state
     handover: exhaustive and clean under I6. *)
  let st = Explore.run (reconfigure_scenario ~handover:true) in
  check_clean "2x2 reconfigure" st

(* CI's unilateral-abort gate: `hermes explore --sites 2 --txns 2
   --txn-shards 1 --uaborts 1 --alive-fires 1 --commit-retries 1`. *)
let uabort_gate =
  {
    Explore.default with
    Explore.txn_shards = 1;
    budgets = { Explore.no_faults with Explore.uaborts = 1; alive_fires = 1; commit_retries = 1 };
  }

(* The gate with its counts pinned: the state and transition counts move
   with any change to a machine's transitions or to the explored space,
   while the exit code only says "no violation". *)
let test_explore_uabort_gate_counts () =
  let st = Explore.run uabort_gate in
  Alcotest.(check bool) "exhausted" false st.Explore.truncated;
  Alcotest.(check (list int))
    "states, transitions, terminals, violations" [ 48_754; 166_382; 106; 0 ]
    [ st.Explore.states; st.Explore.transitions; st.Explore.terminals; st.Explore.n_violations ]

module Local_txn = Hermes_protocol.Local_txn

(* The first 16 steps of the gate's first counterexample when the alive
   check resubmitted a committing subtransaction: T2 at site b commits,
   and its callback has not arrived when T2's alive check fires (the
   17th step). That check then began incarnation 1 of the committed T2,
   which I1 reports. No unilateral abort is needed. *)
let commit_gap_schedule =
  [
    "deliver coord(T1) -> agent(a) [T1] BEGIN";
    "deliver coord(T1) -> agent(a) [T1] EXEC #0 UPDATE t[1] := 0";
    "deliver coord(T2) -> agent(b) [T2] BEGIN";
    "deliver coord(T2) -> agent(b) [T2] EXEC #0 UPDATE t[2] := 1";
    "LTM at a finishes a command of T1 (inc 0)";
    "deliver agent(a) -> coord(T1) [T1] OK #0 count(1)";
    "deliver coord(T1) -> agent(a) [T1] PREPARE sn=0.a.0";
    "deliver agent(a) -> coord(T1) [T1] READY";
    "deliver coord(T1) -> agent(a) [T1] COMMIT";
    "LTM at b finishes a command of T2 (inc 0)";
    "deliver agent(b) -> coord(T2) [T2] OK #0 count(1)";
    "deliver coord(T2) -> agent(b) [T2] PREPARE sn=0.b.1";
    "deliver agent(b) -> coord(T2) [T2] READY";
    "deliver coord(T2) -> agent(b) [T2] COMMIT";
    "LTM at a reports the local commit of T1 (inc 0) done";
    "deliver agent(a) -> coord(T1) [T1] COMMIT-ACK";
  ]

let test_explore_commit_gap () =
  let step g label =
    match
      List.find_opt
        (fun action -> Fmt.str "%a" Explore.pp_action action = label)
        (Explore.enabled uabort_gate g)
    with
    | Some action -> Explore.apply uabort_gate g action
    | None -> Alcotest.failf "not enabled: %s" label
  in
  let t2_at_b (g : Explore.g) = List.assoc 2 (List.assoc 1 g.Explore.ltms) in
  let pending (g : Explore.g) =
    List.mem (Explore.Cb_commit { site = 1; gid = 2; inc = 0; committed = true }) g.Explore.cbs
  in
  let g = List.fold_left step (Explore.init uabort_gate) commit_gap_schedule in
  Alcotest.(check bool) "T2 committed at b" true ((t2_at_b g).Local_txn.status = Local_txn.Committed);
  Alcotest.(check bool) "its callback pending" true (pending g);
  let g = step g "alive-check timer fires for T2 at b" in
  Alcotest.(check int) "the alive check begins no new incarnation" 0 (t2_at_b g).Local_txn.inc;
  Alcotest.(check int) "the agent's incarnation" 0
    (A.Int_map.find 2 (List.assoc 1 g.Explore.agents).A.subs).A.inc;
  Alcotest.(check bool) "still committed, callback still pending" true
    ((t2_at_b g).Local_txn.status = Local_txn.Committed && pending g)

let test_explore_no_handover_unsound () =
  (* Ablation: install the new epoch without handing over the loser's
     prepared certification state — I6 must find the unsound window. *)
  let st = Explore.run (reconfigure_scenario ~handover:false) in
  Alcotest.(check bool) "violations found" true (st.Explore.n_violations > 0);
  Alcotest.(check bool) "an I6 counterexample is reported" true
    (List.exists
       (fun (msg, _) -> String.length msg >= 2 && String.sub msg 0 2 = "I6")
       st.Explore.violations)

(* ------------------------------------------------------------------ *)
(* Timer hygiene: a quiesced run leaves no live timers, no LTM txns   *)
(* ------------------------------------------------------------------ *)

(* Five clients run [globals] transactions between them, each client
   submitting its next when its last one finishes. *)
let quiesced_run ?(certifier = Config.full) ?(globals = 5) ~net_config () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:42 in
  (* Observed, so the network keeps its in-flight records. *)
  let dtm =
    Dtm.create ~engines:[| engine |] ~rng ~net_config ~certifier ~obs:(Obs.create ())
      ~site_specs:(Array.init 2 (fun _ -> Dtm.default_site_spec))
      ()
  in
  List.iter
    (fun s -> List.iter (fun k -> Dtm.load dtm s ~table:"X" ~key:k ~value:100) [ 0; 1; 2 ])
    (Dtm.site_ids dtm);
  let submitted = ref 0 and finished = ref 0 in
  let rec submit_next () =
    if !submitted < globals then begin
      let i = !submitted in
      incr submitted;
      ignore
        (Dtm.submit dtm
           (Program.make
              [
                (a, Command.Update { table = "X"; key = i mod 3; delta = 1 });
                (b, Command.Update { table = "X"; key = i mod 3; delta = -1 });
              ])
           ~on_done:(fun _ ->
             incr finished;
             submit_next ()))
    end
  in
  for _ = 1 to 5 do
    submit_next ()
  done;
  Engine.run engine;
  (* The queue drained: every alive-check / retry / retransmission timer
     armed during the run was cancelled on a terminal transition (and
     popped), so none is live — a leaked periodic timer would instead
     re-arm forever and hang this test. *)
  Alcotest.(check int) "all transactions finished" globals !finished;
  Alcotest.(check int) "quiesced run leaves no live timers" 0 (Engine.stats engine).Engine.live;
  (* Nor does any LTM still hold a transaction: every one committed or
     aborted, and a finished transaction is forgotten. *)
  List.iter
    (fun s ->
      Alcotest.(check int)
        (Fmt.str "LTM %a tracks no transaction" Site.pp s)
        0
        (Hermes_ltm.Ltm.tracked (Dtm.ltm dtm s)))
    (Dtm.site_ids dtm);
  (* Nor does the network hold a message, or per-link state for every
     link the run used: each global uses four links (coordinator to
     agent and back, at both sites), and at most five globals run at
     once, so the network holds fewer than the 64 links at which it
     first sweeps out stale ones, however many globals ran. *)
  List.iter
    (fun net ->
      Alcotest.(check int) "no message in flight" 0 (Network.in_flight net);
      Alcotest.(check bool)
        (Fmt.str "%d links held after %d globals" (Network.links net) globals)
        true
        (Network.links net < 64))
    (Dtm.networks dtm);
  dtm

let test_quiesced_no_live_timers () =
  ignore (quiesced_run ~net_config:Network.default_config () : Dtm.t)

let test_quiesced_many_globals () =
  ignore (quiesced_run ~globals:400 ~net_config:Network.default_config () : Dtm.t)

let test_quiesced_no_live_timers_dup_network () =
  ignore
    (quiesced_run
       ~net_config:
         { Network.default_config with Network.faults = { Network.no_faults with Network.dup = 1.0 } }
       ()
      : Dtm.t)

(* ------------------------------------------------------------------ *)
(* Retired rounds leave the execution state                             *)
(* ------------------------------------------------------------------ *)

module Agent = Hermes_core.Agent
module Agent_log = Hermes_protocol.Agent_log

(* Four clients run [globals] two-site transactions over three sites;
   with [crashes], the sites take turns crashing for 10 000 ticks every
   13 000, coordinators included (on 60 globals, most rounds end in a
   presumed abort and some in-doubt participants recover from the log).
   Once the run quiesces, no finished round may leave anything behind
   that no later message or recovery reads. *)
let retirement_run ?(crashes = false) ~globals ~net_config () =
  let engine = Engine.create () in
  let dtm =
    Dtm.create ~engines:[| engine |] ~rng:(Rng.create ~seed:11) ~net_config ~certifier:Config.full
      ~crash_coordinators:crashes
      ~site_specs:(Array.init 3 (fun _ -> Dtm.default_site_spec))
      ()
  in
  let sites = Dtm.site_ids dtm in
  List.iter
    (fun s -> List.iter (fun k -> Dtm.load dtm s ~table:"X" ~key:k ~value:100) [ 0; 1; 2 ])
    sites;
  let submitted = ref 0 and finished = ref 0 in
  let rec submit_next () =
    if !submitted < globals then begin
      let i = !submitted in
      incr submitted;
      let first = site (i mod 3) and second = site ((i + 1) mod 3) in
      ignore
        (Dtm.submit dtm
           (Program.make
              [
                (first, Command.Update { table = "X"; key = i mod 3; delta = 1 });
                (second, Command.Update { table = "X"; key = i mod 3; delta = -1 });
              ])
           ~on_done:(fun _ ->
             incr finished;
             submit_next ()))
    end
  in
  for _ = 1 to 4 do
    submit_next ()
  done;
  if crashes then
    for i = 0 to 19 do
      Engine.schedule_unit engine ~delay:(13_000 * (i + 1)) (fun () ->
          Dtm.crash_site ~reboot_delay:10_000 dtm (site (i mod 3)))
    done;
  Engine.run engine;
  Alcotest.(check int) "all transactions finished" globals !finished;
  List.iter
    (fun net ->
      Alcotest.(check int)
        "only the agents keep a handler" (List.length sites) (Network.handlers net))
    (Dtm.networks dtm);
  let finished_entries = ref 0 in
  List.iter
    (fun s ->
      let log = Agent.agent_log (Dtm.agent dtm s) and clog = Dtm.coordinator_log dtm s in
      for gid = 1 to globals do
        (match Agent_log.find log ~gid with
        | Some e when e.Agent_log.locally_committed || e.Agent_log.rolled_back ->
            incr finished_entries;
            Alcotest.(check bool)
              (Fmt.str "T%d at %a: a finished Agent-log entry keeps no commands" gid Site.pp s)
              true
              (e.Agent_log.commands = [] && e.Agent_log.coordinator = None)
        | Some _ | None -> ());
        match Coordinator_log.find clog ~gid with
        | Some e ->
            Alcotest.(check bool)
              (Fmt.str "T%d at %a: a finished round keeps its decision, not its participants" gid
                 Site.pp s)
              true
              (e.Coordinator_log.participants = [] && e.Coordinator_log.decision <> None)
        | None -> ()
      done;
      Alcotest.(check int)
        (Fmt.str "no data left bound at %a" Site.pp s)
        0
        (Hermes_ltm.Bound.n_bound (Hermes_ltm.Ltm.bound_registry (Dtm.ltm dtm s))))
    sites;
  Alcotest.(check bool) "finished entries were checked" true (!finished_entries >= globals)

let test_retirement_reliable () = retirement_run ~globals:60 ~net_config:Network.default_config ()

let test_retirement_faults () =
  retirement_run ~crashes:true ~globals:60
    ~net_config:
      {
        Network.default_config with
        Network.faults = { Network.no_faults with Network.drop = 0.01; dup = 0.05 };
      }
    ()

(* A committed and an aborted round finish and leave the network; a
   DECISION-REQ to either address is then answered from the coordinator
   log with its decision, a stray COMMIT-ACK is swallowed, and a message
   for a round that was never submitted still fails. The second round
   aborts because its command at b times out on a lock that a local
   transaction holds to the end of the run. *)
let test_retired_address_answers_from_log () =
  let engine = Engine.create () in
  let dtm =
    Dtm.create ~engines:[| engine |] ~rng:(Rng.create ~seed:5) ~net_config:Network.default_config
      ~certifier:Config.full
      ~site_specs:(Array.init 2 (fun _ -> Dtm.default_site_spec))
      ()
  in
  List.iter
    (fun s -> List.iter (fun k -> Dtm.load dtm s ~table:"X" ~key:k ~value:100) [ 0; 1 ])
    [ a; b ];
  let program key =
    Program.make
      [
        (a, Command.Update { table = "X"; key; delta = 1 });
        (b, Command.Update { table = "X"; key; delta = -1 });
      ]
  in
  let ltm_b = Dtm.ltm dtm b in
  let holder =
    Hermes_ltm.Ltm.begin_txn ltm_b ~owner:(Txn.Incarnation.make ~txn:(Txn.local ~site:b ~n:1) ~site:b ~inc:0)
  in
  Hermes_ltm.Ltm.exec ltm_b holder (Command.Update { table = "X"; key = 1; delta = 1 }) ~on_done:ignore;
  let outcomes = ref [] in
  let on_done o = outcomes := o :: !outcomes in
  let committed = Dtm.submit dtm (program 0) ~on_done in
  let aborted = Dtm.submit dtm (program 1) ~on_done in
  Engine.run engine;
  Alcotest.(check int) "both rounds finished" 2 (List.length !outcomes);
  Alcotest.(check bool) "one committed" true (List.mem Coordinator.Committed !outcomes);
  Alcotest.(check bool) "the other failed at b" true
    (List.exists
       (function Coordinator.Aborted (Coordinator.Exec_failed (s, _)) -> Site.equal s b | _ -> false)
       !outcomes);
  let net = List.hd (Dtm.networks dtm) in
  Alcotest.(check int) "both coordinators left the network" 2 (Network.handlers net);
  let probe = Wire.Agent (site 9) in
  let heard = ref [] in
  Network.register net probe (fun m -> heard := (m.Wire.src, m.Wire.gid, m.Wire.payload) :: !heard);
  let send gid payload = Network.send net ~src:probe ~dst:(Wire.Coordinator gid) ~gid payload in
  send committed Wire.Decision_req;
  send aborted Wire.Decision_req;
  Engine.run engine;
  Alcotest.(check bool) "each DECISION-REQ answered with its logged decision" true
    (List.sort compare !heard
    = List.sort compare
        [
          (Wire.Coordinator committed, committed, Wire.Decision_resp { committed = true });
          (Wire.Coordinator aborted, aborted, Wire.Decision_resp { committed = false });
        ]);
  heard := [];
  send committed Wire.Commit_ack;
  Engine.run engine;
  Alcotest.(check int) "a stray COMMIT-ACK is swallowed" 0 (List.length !heard);
  send 99 Wire.Decision_req;
  match Engine.run engine with
  | () -> Alcotest.fail "a message to a round never submitted was delivered"
  | exception Failure msg ->
      Alcotest.(check bool) "no handler for a round never submitted" true
        (Astring.String.is_infix ~affix:"no handler" msg)

(* ------------------------------------------------------------------ *)
(* Group commit: buffered PREPAREs, staged decisions, the batch force   *)
(* ------------------------------------------------------------------ *)

let gcfg = { cfg with Config.group_commit_window = 1_000; max_batch = 8 }
let force_batches effs = List.filter_map (function T.Force_batch rs -> Some rs | _ -> None) effs

let any_force effs =
  List.exists (function T.Force_log _ | T.Force_batch _ -> true | _ -> false) effs

(* BEGIN + EXEC one subtransaction of [st], stopping short of the
   PREPARE. *)
let begun ?(cfg = gcfg) st gid =
  ignore (deliver ~cfg st ~gid (Wire.Begin { epoch = 0 }));
  ignore (deliver ~cfg st ~gid (Wire.Exec { step = 0; cmd; epoch = 0 }));
  ignore
    (A.step cfg st
       (A.Exec_done
          { env = env (); gid; inc = 0; purpose = A.Reply 0; result = A.Done (Command.Count 1) }))

let test_gc_prepare_buffers_until_flush () =
  let st = A.init ~site:a in
  begun st 1;
  let effs1 = deliver ~cfg:gcfg st ~gid:1 (Wire.Prepare (mk_sn 0)) in
  Alcotest.(check bool) "no vote before the flush" true (sends effs1 = []);
  Alcotest.(check bool) "nothing forced before the flush" true (not (any_force effs1));
  Alcotest.(check bool) "flush timer armed" true (has_arm effs1 A.T_flush);
  begun st 2;
  let effs2 = deliver ~cfg:gcfg st ~gid:2 (Wire.Prepare (mk_sn 1)) in
  Alcotest.(check bool) "second PREPARE buffers silently" true (effs2 = []);
  Alcotest.(check int) "two buffered" 2 (A.buffered_prepares st);
  let effs = A.step gcfg st (A.Flush_fired { env = env ~views:[ (1, v ()); (2, v ()) ] () }) in
  Alcotest.(check int) "both vote READY at the flush" 2
    (List.length (List.filter (( = ) Wire.Ready) (sends effs)));
  (match force_batches effs with
  | [ records ] ->
      Alcotest.(check bool) "one batch force carries both promises, in arrival order" true
        (records = [ A.R_prepare { gid = 1; sn = mk_sn 0 }; A.R_prepare { gid = 2; sn = mk_sn 1 } ])
  | l -> Alcotest.failf "expected exactly one Force_batch, got %d" (List.length l));
  Alcotest.(check bool) "hold-opens coalesced into one LTM round-trip" true
    (has_call effs (A.L_hold_open_batch { gids = [ 1; 2 ] }));
  Alcotest.(check bool) "per-gid hold-opens replaced" true
    ((not (has_call effs (A.L_hold_open { gid = 1 })))
    && not (has_call effs (A.L_hold_open { gid = 2 })));
  Alcotest.(check int) "both certified into the table" 2 (A.n_prepared st);
  Alcotest.(check bool) "no residue after the flush" true
    ((not (A.flush_pending st)) && not (A.flush_armed st))

let test_gc_max_batch_forces_inline () =
  (* A fill to [max_batch] forces inside the delivering step: no waiting
     for the window, and the armed flush timer is cancelled. *)
  let gcfg2 = { gcfg with Config.max_batch = 2 } in
  let st = A.init ~site:a in
  begun ~cfg:gcfg2 st 1;
  begun ~cfg:gcfg2 st 2;
  ignore (deliver ~cfg:gcfg2 st ~gid:1 (Wire.Prepare (mk_sn 0)));
  let effs =
    deliver ~cfg:gcfg2
      ~env:(env ~views:[ (1, v ()); (2, v ()) ] ())
      st ~gid:2 (Wire.Prepare (mk_sn 1))
  in
  Alcotest.(check int) "one batch force at the fill" 1 (List.length (force_batches effs));
  Alcotest.(check bool) "flush timer cancelled" true (has_cancel effs A.T_flush);
  Alcotest.(check int) "both vote READY" 2
    (List.length (List.filter (( = ) Wire.Ready) (sends effs)));
  Alcotest.(check bool) "no residue" true
    ((not (A.flush_pending st)) && not (A.flush_armed st))

let test_gc_decision_staged_until_flush () =
  let views = [ (1, v ()) ] in
  let st = A.init ~site:a in
  begun st 1;
  ignore (deliver ~cfg:gcfg st ~gid:1 (Wire.Prepare (mk_sn 0)));
  ignore (A.step gcfg st (A.Flush_fired { env = env ~views () }));
  let effs = deliver ~cfg:gcfg ~env:(env ~views ()) st ~gid:1 Wire.Commit in
  Alcotest.(check bool) "decision staged, not forced" true (not (any_force effs));
  Alcotest.(check bool) "local commit withheld until the batch force" true
    (not (has_call effs (A.L_commit { gid = 1; inc = 0 })));
  Alcotest.(check int) "one staged record" 1 (A.staged_records st);
  Alcotest.(check bool) "flush timer re-armed" true (has_arm effs A.T_flush);
  let effs = A.step gcfg st (A.Flush_fired { env = env ~views () }) in
  (match force_batches effs with
  | [ [ r ] ] ->
      Alcotest.(check bool) "the commit record is the batch" true (r = A.R_commit { gid = 1 })
  | _ -> Alcotest.fail "expected one single-record Force_batch");
  Alcotest.(check bool) "local commit released with the force" true
    (has_call effs (A.L_commit { gid = 1; inc = 0 }))

let test_gc_crash_loses_staged_state () =
  (* Staged-but-unforced records and buffered PREPAREs are volatile:
     exactly the durability the protocol expects of an unforced record. *)
  let st = A.init ~site:a in
  begun st 1;
  ignore (deliver ~cfg:gcfg st ~gid:1 (Wire.Prepare (mk_sn 0)));
  let effs = A.step gcfg st (A.Crash { live = 0 }) in
  Alcotest.(check bool) "flush timer cancelled on crash" true (has_cancel effs A.T_flush);
  Alcotest.(check bool) "buffered and staged state wiped" true
    ((not (A.flush_pending st)) && not (A.flush_armed st))

let prop_gc_batched_equals_sequential =
  (* The vectorized certification pass at a flush must reach exactly the
     per-gid verdicts that per-message certification reaches, for any mix
     of timestamps and any already-committed max SN. *)
  QCheck.Test.make ~name:"batched certification decides like per-message" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 6) (int_bound 1000)) (option (int_bound 1000)))
    (fun (stamps, max_ts) ->
      let max_sn = Option.map (fun ts -> mk_sn ~ts 99) max_ts in
      let views = List.mapi (fun i _ -> (i + 1, v ())) stamps in
      let e = env ~views ?max_sn () in
      let sns = List.mapi (fun i ts -> (i + 1, mk_sn ~ts (i + 1))) stamps in
      let votes effs =
        List.filter_map
          (function
            | T.Send { gid; payload = (Wire.Ready | Wire.Refuse _) as p; _ } -> Some (gid, p)
            | _ -> None)
          effs
      in
      (* Per-message: certify each PREPARE on arrival (batching off). *)
      let seq_votes =
        let st = A.init ~site:a in
        List.concat_map
          (fun (gid, sn) ->
            begun ~cfg st gid;
            votes (deliver ~env:e st ~gid (Wire.Prepare sn)))
          sns
      in
      (* Batched: buffer them all, then vector-certify at one flush. *)
      let batch_votes =
        let st = A.init ~site:a in
        List.iter
          (fun (gid, sn) ->
            begun ~cfg:gcfg st gid;
            ignore (deliver ~cfg:gcfg ~env:e st ~gid (Wire.Prepare sn)))
          sns;
        votes (A.step gcfg st (A.Flush_fired { env = e }))
      in
      List.sort compare seq_votes = List.sort compare batch_votes)

let gc_certifier = { Config.full with Config.group_commit_window = 1_000; max_batch = 8 }

let test_gc_forces_drop_per_batch () =
  (* End-to-end: 5 two-site globals pay 2 agent forces per subtransaction
     (prepare + commit = 20 total) and 3 coordinator forces per
     transaction (15 total) without batching; group commit must amortize
     both well below that, and a quiesced run must leave no armed flush
     timer and no staged-but-unforced records. *)
  let dtm = quiesced_run ~certifier:gc_certifier ~net_config:Network.default_config () in
  let t = Dtm.totals dtm in
  Alcotest.(check bool) "agent forces amortized" true (t.Dtm.agent_log_forces < 20);
  Alcotest.(check bool) "coordinator forces amortized" true (t.Dtm.coord_log_forces < 15);
  Alcotest.(check bool) "coordinator batcher engaged" true
    (t.Dtm.gc_flushes > 0 && t.Dtm.gc_staged >= t.Dtm.gc_flushes);
  List.iter
    (fun s ->
      Alcotest.(check bool) "no staged-but-unforced records" true
        (not (Hermes_core.Agent.flush_pending (Dtm.agent dtm s))))
    (Dtm.site_ids dtm)

let test_gc_run_digest_deterministic () =
  (* Two identically-seeded batched runs are byte-identical: the flush
     timer and batch forces are as deterministic as everything else. *)
  let setup =
    {
      Driver.default_setup with
      Driver.protocol = Driver.Two_pca gc_certifier;
      seed = 21;
      spec = { Spec.default with Spec.n_global = 40 };
    }
  in
  check_golden "batched run digest stable" (run_digest setup) (run_digest setup)

let test_explore_group_commit_clean () =
  (* The checker drives the flush timer like any other: every
     interleaving of batched certification with max_batch fills is
     exhaustive, violation-free, and leaves no staged residue (the
     checker's hygiene invariant covers T_flush). *)
  let st =
    Explore.run
      {
        Explore.default with
        Explore.n_txns = 2;
        config =
          { Explore.default.Explore.config with Config.group_commit_window = 1_000; max_batch = 2 };
        budgets = Explore.no_faults;
      }
  in
  check_clean "2x2 group commit" st

(* ------------------------------------------------------------------ *)
(* Copy isolation over explored states                                  *)
(* ------------------------------------------------------------------ *)

module P = Hermes_protocol.Paxos_coordinator_sm

(* Feed [input] to a copy of [st] and then to [st] itself (a private
   copy of the explored state, so the exploration is not disturbed).
   Stepping the copy must leave [st]'s view as it was; stepping [st]
   must then reach the copy's successor with the copy's effects. A
   machine exception on the copy leaves [st] unstepped, as in the
   explorer. *)
let isolated ~copy ~step ~view st input =
  let own = copy st in
  let before = snapshot view own in
  let c = copy own in
  match step c input with
  | exception (Failure _ | Invalid_argument _) -> snapshot view own = before
  | e1 ->
      snapshot view own = before
      &&
      let e2 = step own input in
      e2 = e1 && view own = view c

(* The machine input each enabled delivery, timer firing or site crash
   of the explored state [g] feeds, with the machine it targets: an
   agent by site, a coordinator by gid, an acceptor by (gid, index). *)
let machine_inputs scenario (g : Explore.g) =
  List.filter_map
    (fun (action : Explore.action) ->
      match action with
      | Explore.Deliver m -> (
          let { Wire.src; dst; gid; payload } = m in
          match (dst, src) with
          | Wire.Agent site, _ ->
              let s = Site.to_int site in
              Some
                (`Agent
                   ( s,
                     A.Deliver
                       { env = Explore.env_of scenario g s; src; gid; payload; log = Explore.log_view_of g s gid }
                   ))
          | Wire.Coordinator gid, Wire.Agent src -> Some (`Coord (gid, Csm.From_agent { src; payload }))
          | Wire.Coordinator gid, Wire.Acceptor { idx; _ } ->
              Some (`Coord (gid, Csm.From_acceptor { idx; payload }))
          | Wire.Acceptor { gid; idx }, _ -> Some (`Acceptor ((gid, idx), P.Deliver { src; payload }))
          | _ -> None)
      | Explore.Fire (Explore.T_agent (s, timer)) ->
          let env = Explore.env_of scenario g s in
          Some
            (`Agent
               ( s,
                 match timer with
                 | A.T_alive gid -> A.Alive_fired { env; gid }
                 | A.T_commit_retry gid -> A.Retry_fired { env; gid }
                 | A.T_inquiry gid -> A.Inquiry_fired { env; gid }
                 | A.T_backoff { gid; inc } -> A.Backoff_fired { env; gid; inc }
                 | A.T_flush -> A.Flush_fired { env } ))
      | Explore.Fire (Explore.T_coord (gid, timer)) ->
          Some
            (`Coord
               ( gid,
                 match timer with
                 | Csm.Exec_timeout -> Csm.Exec_timeout_fired
                 | Csm.Retransmit -> Csm.Retransmit_fired
                 | Csm.Prepare_retransmit -> Csm.Prepare_retransmit_fired ))
      | Explore.Crash_recover s -> Some (`Agent (s, A.Crash { live = 0 }))
      | _ -> None)
    (Explore.enabled scenario g)

(* Walk the first [max_states] states of the explorer's DFS. At each
   one, every enabled action must leave the state's fingerprint as it
   was (the explorer steps only on copies), and every machine input must
   pass [isolated], a recovery from the site's log included. *)
let check_isolation_over_dfs name scenario ~max_states =
  let visited = Hashtbl.create 4096 in
  let explored = ref 0 and checked = ref 0 in
  let fail what = Alcotest.failf "%s: %s after %d states" name what !explored in
  let rec go (g : Explore.g) =
    if !explored < max_states then begin
      incr explored;
      let fp = Explore.fingerprint g in
      List.iter
        (fun input ->
          incr checked;
          let ok =
            match input with
            | `Agent (s, input) ->
                isolated ~copy:A.copy ~step:(A.step scenario.Explore.config) ~view:agent_view
                  (List.assoc s g.Explore.agents) input
            | `Coord (gid, input) ->
                let cfg =
                  Csm.config ~quorum:scenario.Explore.quorum
                    ~epoch:(Explore.assoc_or gid g.Explore.tepoch ~default:0)
                    scenario.Explore.config
                in
                isolated ~copy:Csm.copy ~step:(Csm.step cfg) ~view:coord_view
                  (List.assoc gid g.Explore.coords) input
            | `Acceptor (key, input) ->
                isolated ~copy:P.copy ~step:(P.step (P.config scenario.Explore.config)) ~view:Fun.id
                  (List.assoc key g.Explore.accs) input
          in
          if not ok then fail "a machine step on a copy differs from the step on its original")
        (machine_inputs scenario g
        @ List.map
            (fun (s, _) ->
              `Agent
                (s, A.Recover { env = Explore.env_of scenario g s; entries = Explore.in_doubt g s }))
            g.Explore.agents);
      List.iter
        (fun action ->
          match Explore.apply scenario g action with
          | exception Explore.Violation _ -> ()
          | g' ->
              if Explore.fingerprint g <> fp then fail "an action changed the state it was applied to";
              let fp' = Explore.fingerprint g' in
              if not (Hashtbl.mem visited fp') then begin
                Hashtbl.add visited fp' ();
                go g'
              end)
        (Explore.enabled scenario g)
    end
  in
  let g0 = Explore.init scenario in
  Hashtbl.add visited (Explore.fingerprint g0) ();
  go g0;
  Alcotest.(check bool) (name ^ ": states explored") true (!explored > 100);
  Alcotest.(check bool) (name ^ ": machine inputs checked") true (!checked > 100)

let test_copy_isolation_over_explored_states () =
  let faults = { Explore.no_faults with Explore.uaborts = 1; alive_fires = 1; commit_retries = 2 } in
  List.iter
    (fun (name, scenario) -> check_isolation_over_dfs name scenario ~max_states:1_500)
    [
      ("2x2 resubmissions", { Explore.default with Explore.budgets = faults });
      ( "2x2 group commit",
        {
          Explore.default with
          Explore.config =
            { Explore.default.Explore.config with Config.group_commit_window = 1_000; max_batch = 2 };
          budgets = faults;
        } );
      ( "2x1 crashes and coordinator recovery",
        {
          Explore.default with
          Explore.n_txns = 1;
          budgets =
            { Explore.no_faults with Explore.crashes = 1; coord_crashes = 1; inquiries = 1; retransmits = 1 };
        } );
      ( "2x1 paxos with a kill",
        {
          Explore.default with
          Explore.n_txns = 1;
          config = { Explore.default.Explore.config with Config.commit_proto = Config.Paxos { f = 1 } };
          budgets = { Explore.no_faults with Explore.replica_kills = 1; retransmits = 1 };
        } );
      ( "2x2 shard move with handover",
        {
          Explore.default with
          Explore.txn_shards = 1;
          budgets = { Explore.no_faults with Explore.reconfigures = 1 };
        } );
    ]

(* ------------------------------------------------------------------ *)
(* Paxos Commit: the replicated decision register                       *)
(* ------------------------------------------------------------------ *)

module Acceptor = Hermes_core.Acceptor

let pcfg = { cfg with Config.commit_proto = Config.Paxos { f = 1 } }
let btm_cfg = { cfg with Config.commit_proto = Config.backup_tm }
let pcstep st input = Csm.step (Csm.config pcfg) st input

(* Drive the paxos-mode coordinator to the Preparing phase. *)
let p_preparing () =
  let st = coord_init () in
  ignore (pcstep st Csm.Start);
  ignore (pcstep st (exec_ok a));
  ignore (pcstep st (exec_ok b));
  ignore (pcstep st (Csm.Gate_opened { sn = Some (mk_sn 0); lossy = false }));
  st

let test_paxos_commit_waits_for_write_quorum () =
  (* All-READY proposes commit at ballot 0 to every acceptor; COMMIT is
     announced only once a write quorum (f+1 = 2 of 3) has accepted. *)
  let st = p_preparing () in
  ignore (pcstep st (Csm.From_agent { src = a; payload = Wire.Ready }));
  let effs = pcstep st (Csm.From_agent { src = b; payload = Wire.Ready }) in
  Alcotest.(check int) "ballot-0 proposal to all 2f+1 acceptors" 3
    (List.length
       (List.filter (fun (_, p) -> p = Wire.Px_accept { ballot = 0; committed = true }) (csends effs)));
  Alcotest.(check bool) "no COMMIT before the quorum" true
    (not (List.exists (fun (_, p) -> p = Wire.Commit) (csends effs)));
  let effs = pcstep st (Csm.From_acceptor { idx = 0; payload = Wire.Px_accepted { ballot = 0; idx = 0 } }) in
  Alcotest.(check bool) "one ack: still replicating" true
    (not (List.exists (fun (_, p) -> p = Wire.Commit) (csends effs)));
  let effs = pcstep st (Csm.From_acceptor { idx = 1; payload = Wire.Px_accepted { ballot = 0; idx = 1 } }) in
  Alcotest.(check int) "write quorum reached: COMMIT broadcast" 2
    (List.length (List.filter (fun (_, p) -> p = Wire.Commit) (csends effs)))

let test_paxos_coordinator_adopts_register_abort_in_preparing () =
  (* Found by the model checker: an in-doubt participant's inquiry can
     prod a recovery ballot into presuming abort while the leader is
     still collecting votes — its ROLLBACK-ACK then arrives in the
     Preparing phase and must be adopted, not rejected. *)
  let st = p_preparing () in
  let effs = pcstep st (Csm.From_agent { src = a; payload = Wire.Rollback_ack }) in
  Alcotest.(check bool) "register abort adopted" true
    (List.exists (function T.Emit (Csm.Adopted { committed = false }) -> true | _ -> false) effs);
  Alcotest.(check bool) "abort decision forced" true
    (List.exists (function T.Force_log (Csm.R_decision { committed = false }) -> true | _ -> false) effs);
  Alcotest.(check int) "ROLLBACK broadcast" 2
    (List.length (List.filter (fun (_, p) -> p = Wire.Rollback) (csends effs)))

(* A finished round has no armed timer, so a crash has nothing to
   silence: [Dtm.crash_site] skips finished coordinators and drops them
   from its hosted list on that ground. Checked on a group-commit round,
   whose decision record is staged, and on a Paxos round, whose commit
   waits for the register. [step] updates the state in place, so the
   crash is compared against a snapshot of the whole state taken before
   it. *)
let test_coordinator_crash_when_finished_is_a_no_op () =
  let finished_crash name config ~commit =
    let st = coord_init () in
    let step input = Csm.step config st input in
    ignore (step Csm.Start);
    ignore (step (exec_ok a));
    ignore (step (exec_ok b));
    ignore (step (Csm.Gate_opened { sn = Some (mk_sn 0); lossy = true }));
    ignore (step (Csm.From_agent { src = a; payload = Wire.Ready }));
    ignore (step (Csm.From_agent { src = b; payload = Wire.Ready }));
    commit step;
    ignore (step (Csm.From_agent { src = a; payload = Wire.Commit_ack }));
    let effs = step (Csm.From_agent { src = b; payload = Wire.Commit_ack }) in
    Alcotest.(check bool) (name ^ ": finished") true (st.Csm.finished && List.mem (T.Decide T.Committed) effs);
    let before = snapshot Fun.id st in
    let effs = step Csm.Crash in
    Alcotest.(check int) (name ^ ": crash emits nothing") 0 (List.length effs);
    Alcotest.(check bool) (name ^ ": crash leaves the state equal") true (snapshot Fun.id st = before)
  in
  finished_crash "group commit" (Csm.config gcfg) ~commit:ignore;
  finished_crash "paxos" (Csm.config pcfg) ~commit:(fun step ->
      let accepted idx = Csm.From_acceptor { idx; payload = Wire.Px_accepted { ballot = 0; idx } } in
      ignore (step (accepted 0));
      ignore (step (accepted 1)))

(* Acceptor-machine probes. *)
let pa = P.config pcfg
let asends effs = List.filter_map (function T.Send { dst; payload; _ } -> Some (dst, payload) | _ -> None) effs
let acc_addr idx = Wire.Acceptor { gid = 1; idx }

let astep st input = P.step pa st input
let adeliver st ~src payload = astep st (P.Deliver { src; payload })

let test_paxos_recovery_adopts_accepted_value () =
  (* The acceptor holds ballot-0 commit; a DECISION-REQ starts a full
     recovery ballot which must re-propose that value (B3) and answer
     the asker commit once a write quorum accepts. *)
  let st = P.init ~gid:1 ~idx:0 in
  let effs = adeliver st ~src:(Wire.Coordinator 1) (Wire.Px_accept { ballot = 0; committed = true }) in
  Alcotest.(check bool) "ballot-0 value force-accepted" true
    (List.exists
       (function T.Force_log (P.R_accepted { ballot = 0; committed = true }) -> true | _ -> false)
       effs);
  let effs = adeliver st ~src:(Wire.Agent b) Wire.Decision_req in
  Alcotest.(check int) "recovery ballot queries the peers" 2
    (List.length (List.filter (fun (_, p) -> p = Wire.Px_query { ballot = 1 }) (asends effs)));
  let effs =
    adeliver st ~src:(acc_addr 1)
      (Wire.Px_promise { ballot = 1; promised = 1; accepted = Some (0, true); idx = 1 })
  in
  Alcotest.(check int) "read quorum: phase 2 re-proposes commit" 2
    (List.length
       (List.filter (fun (_, p) -> p = Wire.Px_accept { ballot = 1; committed = true }) (asends effs)));
  let effs = adeliver st ~src:(acc_addr 1) (Wire.Px_accepted { ballot = 1; idx = 1 }) in
  Alcotest.(check bool) "decided commit" true (st.P.decided = Some true);
  Alcotest.(check bool) "asker answered commit" true
    (List.mem (Wire.Agent b, Wire.Decision_resp { committed = true }) (asends effs))

let test_paxos_recovery_presumes_abort_when_register_empty () =
  (* No acceptor in the read quorum ever accepted a value: the recovery
     ballot is free to choose abort (replicated presumed abort). *)
  let st = P.init ~gid:1 ~idx:0 in
  ignore (adeliver st ~src:(Wire.Agent b) Wire.Decision_req);
  ignore
    (adeliver st ~src:(acc_addr 1) (Wire.Px_promise { ballot = 1; promised = 1; accepted = None; idx = 1 }));
  let effs = adeliver st ~src:(acc_addr 1) (Wire.Px_accepted { ballot = 1; idx = 1 }) in
  Alcotest.(check bool) "decided abort" true (st.P.decided = Some false);
  Alcotest.(check bool) "asker answered rollback" true
    (List.mem (Wire.Agent b, Wire.Decision_resp { committed = false }) (asends effs))

let test_paxos_nacked_leader_rebids_above_the_nack () =
  (* A higher promise nacks the ballot; the leader abandons and the next
     DECISION-REQ re-runs in its own ballot space above the nack. *)
  let st = P.init ~gid:1 ~idx:0 in
  ignore (adeliver st ~src:(Wire.Agent b) Wire.Decision_req);
  let effs =
    adeliver st ~src:(acc_addr 1) (Wire.Px_promise { ballot = 1; promised = 5; accepted = None; idx = 1 })
  in
  Alcotest.(check bool) "nack emitted, ballot abandoned" true
    (List.exists (function T.Emit (P.Nacked { ballot = 1; promised = 5 }) -> true | _ -> false) effs);
  Alcotest.(check bool) "no sends on the nack" true (asends effs = []);
  let effs = adeliver st ~src:(Wire.Agent b) Wire.Decision_req in
  Alcotest.(check int) "re-bids above the promised ballot (own space)" 2
    (List.length (List.filter (fun (_, p) -> p = Wire.Px_query { ballot = 7 }) (asends effs)))

let test_backup_tm_register_decides_alone () =
  (* Backup-TM is the 1-acceptor degenerate register: read and write
     quorums are the acceptor itself, so a DECISION-REQ resolves in one
     step — presumed abort with an empty register, the held value
     otherwise. *)
  let btm = P.config btm_cfg in
  let st = P.init ~gid:1 ~idx:0 in
  let effs = P.step btm st (P.Deliver { src = Wire.Agent b; payload = Wire.Decision_req }) in
  Alcotest.(check bool) "empty register: abort, immediately" true (st.P.decided = Some false);
  Alcotest.(check bool) "asker answered rollback" true
    (List.mem (Wire.Agent b, Wire.Decision_resp { committed = false }) (asends effs));
  let st2 = P.init ~gid:2 ~idx:0 in
  ignore
    (P.step btm st2
       (P.Deliver { src = Wire.Coordinator 2; payload = Wire.Px_accept { ballot = 0; committed = true } }));
  let effs = P.step btm st2 (P.Deliver { src = Wire.Agent b; payload = Wire.Decision_req }) in
  Alcotest.(check bool) "held commit survives into recovery" true (st2.P.decided = Some true);
  Alcotest.(check bool) "asker answered commit" true
    (List.exists (fun (_, p) -> p = Wire.Decision_resp { committed = true }) (asends effs))

let prop_paxos_register_write_once =
  (* The register safety property: under any interleaving, reordering
     and dropping of messages, any number of inquiries, and crash+replay
     of any acceptor from its force-written log, at most one value is
     ever decided — by any acceptor, any log, or any DECISION-RESP. *)
  QCheck.Test.make ~name:"paxos register is write-once under crashes and reordering" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = pa.P.n in
      let machines = Array.init n (fun idx -> P.init ~gid:1 ~idx) in
      let lp = Array.make n 0 in
      let la = Array.make n None in
      let ld = Array.make n None in
      let pool = ref [] in
      let observed = ref [] in
      let apply_log i = function
        | P.R_promised { ballot } -> lp.(i) <- max lp.(i) ballot
        | P.R_accepted { ballot; committed } ->
            lp.(i) <- max lp.(i) ballot;
            la.(i) <- Some (ballot, committed)
        | P.R_decided { committed } -> ld.(i) <- Some committed
      in
      let interp i (eff : P.effect) =
        match eff with
        | T.Send { dst = Wire.Acceptor { idx; _ }; payload; _ } ->
            pool := (idx, acc_addr i, payload) :: !pool
        | T.Send { payload = Wire.Decision_resp { committed }; _ } ->
            observed := committed :: !observed
        | T.Send _ -> ()
        | T.Force_log r -> apply_log i r
        | T.Emit _ -> ()
        | T.Arm_timer _ | T.Cancel_timer _ | T.Ltm_call _ -> .
        | _ -> assert false
      in
      let feed i input = List.iter (interp i) (P.step pa machines.(i) input) in
      (* Stimulus: the leader's ballot-0 commit proposal reaches a random
         subset of acceptors, and one or two in-doubt participants ask. *)
      for i = 0 to n - 1 do
        if Random.State.bool rng then
          pool := (i, Wire.Coordinator 1, Wire.Px_accept { ballot = 0; committed = true }) :: !pool
      done;
      pool := (Random.State.int rng n, Wire.Agent a, Wire.Decision_req) :: !pool;
      if Random.State.bool rng then
        pool := (Random.State.int rng n, Wire.Agent b, Wire.Decision_req) :: !pool;
      let rec take k = function
        | [] -> assert false
        | x :: r ->
            if k = 0 then (x, r)
            else
              let y, rest = take (k - 1) r in
              (y, x :: rest)
      in
      let steps = ref 0 in
      while !pool <> [] && !steps < 2_000 do
        incr steps;
        let (dst, src, payload), rest = take (Random.State.int rng (List.length !pool)) !pool in
        pool := rest;
        match Random.State.int rng 10 with
        | 0 -> () (* the network loses it *)
        | 1 ->
            (* a random acceptor crashes and replays its log first *)
            let i = Random.State.int rng n in
            machines.(i) <- P.init ~gid:1 ~idx:i;
            feed i (P.Recover { promised = lp.(i); accepted = la.(i); decided = ld.(i) });
            feed dst (P.Deliver { src; payload })
        | _ -> feed dst (P.Deliver { src; payload })
      done;
      let decided =
        List.filter_map Fun.id (Array.to_list ld)
        @ List.filter_map (fun (st : P.state) -> st.P.decided) (Array.to_list machines)
        @ !observed
      in
      match decided with [] -> true | v :: rest -> List.for_all (Bool.equal v) rest)

let test_acceptor_adapter_replays_its_log () =
  (* The effectful shell: promised ballot and accepted value are
     force-written as they change, and crash+recover rebuilds the
     machine from exactly that log. *)
  let engine = Engine.create () in
  let rng = Rng.create ~seed:1 in
  let net = Network.create ~engine ~rng ~config:Network.default_config () in
  let acc = Acceptor.create ~site:a ~engine ~net ~config:pcfg () in
  Acceptor.host acc ~gid:1 ~idx:0;
  Alcotest.(check int) "one instance hosted" 1 (Acceptor.n_hosted acc);
  let inbox = ref [] in
  Network.register net (Wire.Acceptor { gid = 1; idx = 1 }) (fun m ->
      inbox := m.Wire.payload :: !inbox);
  Network.register net (Wire.Coordinator 1) (fun _ -> ());
  let send payload =
    Network.send net
      ~src:(Wire.Acceptor { gid = 1; idx = 1 })
      ~dst:(Wire.Acceptor { gid = 1; idx = 0 })
      ~gid:1 payload;
    Engine.run engine
  in
  send (Wire.Px_query { ballot = 3 });
  send (Wire.Px_accept { ballot = 3; committed = true });
  Alcotest.(check bool) "promise and acceptance forced" true (Acceptor.force_writes acc >= 2);
  Acceptor.crash acc;
  Acceptor.recover acc;
  inbox := [];
  (* A stale lower-ballot query after the reboot must be answered from
     the replayed log: promised 3, accepted (3, commit). *)
  send (Wire.Px_query { ballot = 1 });
  match !inbox with
  | [ Wire.Px_promise { ballot = 1; promised = 3; accepted = Some (3, true); idx = 0 } ] -> ()
  | _ -> Alcotest.fail "replayed acceptor did not answer from its force-written log"

(* ------------------------------------------------------------------ *)
(* The termination protocol on a reliable network (regression)          *)
(* ------------------------------------------------------------------ *)

let test_inquiry_arms_on_reliable_network () =
  (* Regression: the inquiry timer used to arm only when the network was
     lossy, so an in-doubt participant of a crashed coordinator on a
     perfectly reliable network blocked until the coordinator's reboot
     happened to retransmit. Coordinator crashes alone must arm it:
     crash T1's coordinator site the moment the remote participant is
     prepared, keep it down well past the inquiry interval, and the
     participant must inquire — with zero message loss. *)
  let obs = Obs.create () in
  let engine = Engine.create () in
  let rng = Rng.create ~seed:42 in
  let dtm =
    Dtm.create ~engines:[| engine |] ~rng ~net_config:Network.default_config ~certifier:Config.full
      ~obs ~crash_coordinators:true
      ~site_specs:[| Dtm.default_site_spec; Dtm.default_site_spec |]
      ()
  in
  List.iter (fun s -> Dtm.load dtm s ~table:"X" ~key:0 ~value:100) (Dtm.site_ids dtm);
  let outcome = ref None in
  ignore
    (Dtm.submit dtm
       (Program.make
          [ (a, Command.Update { table = "X"; key = 0; delta = 1 });
            (b, Command.Update { table = "X"; key = 0; delta = -1 }) ])
       ~on_done:(fun o -> outcome := Some o));
  (* T1's coordinator lives at site a: crash it as soon as site b's agent
     holds the prepared subtransaction, down for 4 inquiry intervals. *)
  let agent_b = Dtm.agent dtm b in
  let fired = ref false in
  let rec poll () =
    if not !fired then
      if Hermes_core.Agent.n_prepared agent_b > 0 then begin
        fired := true;
        Dtm.crash_site ~reboot_delay:(4 * Config.full.Config.decision_inquiry_interval) dtm a
      end
      else if Time.to_int (Engine.now engine) < 1_000_000 then
        Engine.schedule_unit engine ~delay:100 poll
  in
  Engine.schedule_unit engine ~delay:100 poll;
  Engine.run engine;
  Alcotest.(check bool) "caught the prepared window" true !fired;
  Alcotest.(check bool) "the transaction terminated" true (!outcome <> None);
  Alcotest.(check bool) "agents inquired without any message loss" true
    (Registry.sum_counter (Obs.metrics obs) "agent.inquiries" > 0)

(* ------------------------------------------------------------------ *)
(* The model checker on the replicated register                         *)
(* ------------------------------------------------------------------ *)

let kill_scenario ?(proto = Config.Paxos { f = 1 }) ~kills () =
  {
    Explore.default with
    Explore.n_txns = 1;
    config = { Explore.default.Explore.config with Config.commit_proto = proto };
    budgets = { Explore.no_faults with Explore.replica_kills = kills };
  }

let test_explore_paxos_f_kills_clean () =
  (* Non-blocking up to F: with f = 1, any single permanent leader or
     acceptor kill anywhere in the schedule leaves every in-doubt
     participant resolvable. *)
  check_clean "paxos 1 kill" (Explore.run (kill_scenario ~kills:1 ()))

let test_explore_paxos_f_plus_1_kills_block () =
  (* The availability boundary: F+1 = 2 permanent kills must rediscover
     a forever-blocked in-doubt participant (I5). *)
  let st = Explore.run (kill_scenario ~kills:2 ()) in
  Alcotest.(check bool) "exhausted" false st.Explore.truncated;
  Alcotest.(check bool) "violations found" true (st.Explore.n_violations > 0);
  Alcotest.(check bool) "an I5 counterexample is reported" true
    (List.exists
       (fun (msg, _) -> String.length msg >= 2 && String.sub msg 0 2 = "I5")
       st.Explore.violations)

let test_explore_backup_tm_single_kill_blocks () =
  (* Backup-TM survives no permanent replica failure (F = 0): one kill
     already blocks, which is exactly why Paxos Commit runs 2F+1. *)
  let st = Explore.run (kill_scenario ~proto:Config.backup_tm ~kills:1 ()) in
  Alcotest.(check bool) "violations found" true (st.Explore.n_violations > 0)

(* ------------------------------------------------------------------ *)
(* The process-fault adversaries and their countermeasures              *)
(* ------------------------------------------------------------------ *)

let cfg_certs = { cfg with Config.decision_certificates = true }
let cfg_lying = { cfg with Config.adversary = { Config.no_adversary with Config.lying_sites = [ 0 ] } }
let cfg_drift = { cfg with Config.max_sn_drift = Some 100 }
let cfg_susp = { cfg with Config.suspicion_timeout = 7 }

let test_certified_vote () =
  (* With decision certificates on, the READY carries the prepare
     certificate (the force-written serial number). *)
  let effs = prepared ~cfg:cfg_certs ~sn:(mk_sn 0) (A.init ~site:a) in
  Alcotest.(check bool) "vote is certified" true
    (has_send effs (Wire.Ready_certified { sn = mk_sn 0 }));
  Alcotest.(check bool) "bare READY suppressed" true (not (has_send effs Wire.Ready))

let test_cert_gate_ignores_bare_commit () =
  (* A bare COMMIT at a prepared participant is an equivocating
     coordinator's forgery: noted, never obeyed. The certified decision
     then commits normally. *)
  let views = [ (1, v ()) ] in
  let st = A.init ~site:a in
  ignore (prepared ~cfg:cfg_certs ~sn:(mk_sn 0) st);
  let effs = deliver ~cfg:cfg_certs ~env:(env ~views ()) st ~gid:1 Wire.Commit in
  Alcotest.(check bool) "equivocation detected" true
    (List.exists (function T.Emit (A.Ev_equivocation_detected { gid = 1 }) -> true | _ -> false) effs);
  Alcotest.(check bool) "no local commit on a bare decision" true
    (not (has_call effs (A.L_commit { gid = 1; inc = 0 })));
  Alcotest.(check bool) "no ack on a bare decision" true (sends effs = []);
  let effs =
    deliver ~cfg:cfg_certs ~env:(env ~views ()) st ~gid:1 (Wire.Commit_certified { voters = [ a; b ] })
  in
  Alcotest.(check bool) "certified COMMIT forces the record" true
    (has_log effs (A.R_commit { gid = 1 }));
  Alcotest.(check bool) "certified COMMIT commits locally" true
    (has_call effs (A.L_commit { gid = 1; inc = 0 }))

let test_cert_gate_ignores_bare_rollback () =
  let views = [ (1, v ()) ] in
  let st = A.init ~site:a in
  ignore (prepared ~cfg:cfg_certs ~sn:(mk_sn 0) st);
  let effs = deliver ~cfg:cfg_certs ~env:(env ~views ()) st ~gid:1 Wire.Rollback in
  Alcotest.(check bool) "equivocation detected" true
    (List.exists (function T.Emit (A.Ev_equivocation_detected { gid = 1 }) -> true | _ -> false) effs);
  Alcotest.(check bool) "promise kept: no local abort" true
    (not (has_call effs (A.L_abort { gid = 1 })));
  let effs = deliver ~cfg:cfg_certs ~env:(env ~views ()) st ~gid:1 Wire.Rollback_certified in
  Alcotest.(check bool) "certified ROLLBACK aborts" true (has_call effs (A.L_abort { gid = 1 }));
  Alcotest.(check bool) "certified ROLLBACK acked" true (has_send effs Wire.Rollback_ack)

let test_drift_refusal () =
  (* The serial number's timestamp is 1000 ticks behind the agent's
     clock, beyond the 100-tick bound: refused outright, nothing
     prepared. Within the bound the same PREPARE certifies. *)
  let effs = prepared ~cfg:cfg_drift ~sn:(mk_sn 1) ~now:1000 (A.init ~site:a) in
  Alcotest.(check bool) "stale SN refused" true
    (has_send effs (Wire.Refuse Wire.Drift_refused));
  Alcotest.(check bool) "local abort" true (has_call effs (A.L_abort { gid = 1 }));
  let st = A.init ~site:a in
  let effs = prepared ~cfg:cfg_drift ~sn:(mk_sn 1) ~now:50 st in
  Alcotest.(check bool) "fresh SN certifies" true (has_send effs Wire.Ready);
  Alcotest.(check int) "prepared" 1 (A.n_prepared st)

let test_lying_prepare_promises_nothing () =
  (* Vote denial: the liar answers READY with no certification pass, no
     force-written prepare record and no held-open locks — the promise
     evaporates at the first crash or replay. *)
  let st = A.init ~site:a in
  let effs = prepared ~cfg:cfg_lying ~sn:(mk_sn 0) st in
  Alcotest.(check bool) "votes READY regardless" true (has_send effs Wire.Ready);
  Alcotest.(check bool) "nothing certified" true (verdict_of effs = None);
  Alcotest.(check bool) "no prepare record" true
    (not (has_log effs (A.R_prepare { gid = 1; sn = mk_sn 0 })));
  Alcotest.(check bool) "no held-open locks" true
    (not (has_call effs (A.L_hold_open { gid = 1 })));
  Alcotest.(check int) "no table entry" 0 (A.n_prepared st)

let test_suspicion_escalates () =
  (* A suspicion timeout bounds the in-doubt window even with the
     ordinary termination protocol disengaged (env.inquiry = false):
     the inquiry timer arms at prepare, and each firing counts a
     suspicion and asks for the decision. *)
  let st = A.init ~site:a in
  let effs = prepared ~cfg:cfg_susp ~sn:(mk_sn 0) st in
  Alcotest.(check bool) "inquiry timer armed without env.inquiry" true
    (has_arm effs (A.T_inquiry 1));
  let effs =
    A.step cfg_susp st (A.Inquiry_fired { env = env ~now:7 ~views:[ (1, v ()) ] (); gid = 1 })
  in
  Alcotest.(check bool) "suspicion counted" true
    (List.exists (function T.Emit (A.Ev_suspicion { gid = 1 }) -> true | _ -> false) effs);
  Alcotest.(check bool) "asks for the decision" true (has_send effs Wire.Decision_req);
  Alcotest.(check bool) "re-arms" true (has_arm effs (A.T_inquiry 1))

let prop_zero_adversary_byte_identical =
  (* The effect-order contract: a config with every adversary knob at
     its zero value — and the drift guard enabled but vacuous — draws
     the same RNG stream, emits the same trace and counts the same
     metrics as the honest config, byte for byte, at any seed. *)
  QCheck.Test.make ~name:"zero adversary knobs are byte-identical to faults-off" ~count:8
    QCheck.(pair (int_bound 999) (int_range 10 30))
    (fun (seed, n_global) ->
      let zeroed =
        {
          Config.full with
          Config.adversary = { Config.lying_sites = []; equivocate = false; sn_drift = 0 };
          Config.max_sn_drift = Some 1_000_000_000;
        }
      in
      let dig config =
        run_digest
          {
            Driver.default_setup with
            Driver.protocol = Driver.Two_pca config;
            seed;
            spec =
              Spec.make ~n_global
                ~arrival:(Spec.Closed { mpl = 3; think_time_mean = Spec.think_time Spec.default })
                ();
          }
      in
      dig Config.full = dig zeroed)

(* The model checker against each adversary: undefended it rediscovers
   the violation; defended it exhausts clean. *)

let violation_with_prefix (st : Explore.stats) p =
  List.exists
    (fun (msg, _) -> String.length msg >= String.length p && String.sub msg 0 (String.length p) = p)
    st.Explore.violations

let lying_scenario ~defended =
  let config =
    {
      Explore.default.Explore.config with
      Config.adversary = { Config.no_adversary with Config.lying_sites = [ 1 ] };
      Config.decision_certificates = defended;
    }
  in
  { Explore.default with Explore.config; budgets = Explore.no_faults }

let test_explore_vote_denial_violates () =
  (* The liar's bare READY completes the quorum and the transaction
     globally commits with no durable promise behind site b's vote:
     I2 (decision soundness) must find it. *)
  let st = Explore.run (lying_scenario ~defended:false) in
  Alcotest.(check bool) "exhausted" false st.Explore.truncated;
  Alcotest.(check bool) "an I2 counterexample is reported" true (violation_with_prefix st "I2")

let test_explore_vote_denial_defended_clean () =
  (* Prepare certificates: the liar cannot certify a promise it never
     logged, so its bare READY no longer counts towards the quorum. *)
  check_clean "lying + certificates" (Explore.run (lying_scenario ~defended:true))

let equivocation_scenario ~defended =
  let config =
    {
      Explore.default.Explore.config with
      Config.adversary = { Config.no_adversary with Config.equivocate = true };
    }
  in
  let config =
    if defended then
      { config with Config.decision_certificates = true; Config.suspicion_timeout = 5 }
    else config
  in
  {
    Explore.default with
    Explore.n_txns = 1;
    config;
    budgets =
      (if defended then { Explore.no_faults with Explore.inquiries = 1; retransmits = 1 }
       else Explore.no_faults);
  }

let test_explore_equivocation_violates () =
  (* COMMIT to half the participants, bare ROLLBACK to the rest: I4
     (decision agreement) must catch the split. *)
  let st = Explore.run (equivocation_scenario ~defended:false) in
  Alcotest.(check bool) "exhausted" false st.Explore.truncated;
  Alcotest.(check bool) "an I4 counterexample is reported" true (violation_with_prefix st "I4")

let test_explore_equivocation_defended_clean () =
  (* Certificates make the forged branch inert and the suspicion timeout
     lets the starved half resolve through the decision log. *)
  check_clean "equivocation + certificates + suspicion"
    (Explore.run (equivocation_scenario ~defended:true))

let drift_scenario ~defended =
  let config =
    {
      Config.without_extension with
      Config.bind_data = false;
      Config.adversary = { Config.no_adversary with Config.sn_drift = 1_000 };
      Config.max_sn_drift = (if defended then Some 100 else None);
    }
  in
  {
    Explore.default with
    Explore.config = config;
    budgets = { Explore.no_faults with Explore.commit_retries = 2 };
  }

let test_explore_sn_drift_violates () =
  (* A stale-clock coordinator slots an even gid's commit below serial
     numbers the other site already released; without §5.3's extension
     check the certified order goes non-serializable (I3). *)
  let st = Explore.run (drift_scenario ~defended:false) in
  Alcotest.(check bool) "exhausted" false st.Explore.truncated;
  Alcotest.(check bool) "an I3 counterexample is reported" true (violation_with_prefix st "I3")

let test_explore_sn_drift_defended_clean () =
  (* The drift bound refuses the stale PREPARE before certification. *)
  check_clean "sn drift + rejection" (Explore.run (drift_scenario ~defended:true))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "protocol"
    [
      ( "golden",
        [
          Alcotest.test_case "e1 table byte-identical" `Slow test_golden_e1;
          Alcotest.test_case "e5-style run byte-identical" `Slow test_golden_e5;
          Alcotest.test_case "e5 ticket run byte-identical" `Slow test_golden_e5_ticket;
          Alcotest.test_case "e13-style faulty run byte-identical" `Slow test_golden_e13;
          Alcotest.test_case "e13 multi-interval run byte-identical" `Slow test_golden_e13_multi_interval;
          Alcotest.test_case "e9 resubmitting run byte-identical" `Slow test_golden_e9;
        ] );
      ( "agent-prepare",
        [
          Alcotest.test_case "certifies and votes READY" `Quick test_prepare_ready;
          Alcotest.test_case "extension refusal (5.3)" `Quick test_prepare_extension_refused;
          Alcotest.test_case "interval refusal (4.2)" `Quick test_prepare_interval_refused;
          Alcotest.test_case "refresh saves an alive neighbour" `Quick test_prepare_refresh_saves_alive_neighbour;
          Alcotest.test_case "dead refusal (CI 2)" `Quick test_prepare_dead_refused;
          Alcotest.test_case "duplicate PREPARE re-votes" `Quick test_prepare_duplicate_revotes;
        ] );
      ( "agent-alive",
        [
          Alcotest.test_case "alive check extends the interval" `Quick test_alive_check_extends_interval;
          Alcotest.test_case "dead subtransaction resubmits" `Quick test_alive_check_triggers_resubmission;
          Alcotest.test_case "committing subtransaction only re-arms" `Quick
            test_alive_check_during_local_commit;
          Alcotest.test_case "step on a copy leaves st" `Quick test_step_on_copy_leaves_state;
        ] );
      ( "agent-commit",
        [
          Alcotest.test_case "commit certification delays and releases" `Quick
            test_commit_certification_delays_and_releases;
          Alcotest.test_case "COMMIT for unknown gid trips the machine" `Quick
            test_commit_unknown_uncommitted_fails;
        ] );
      ( "paxos-register",
        [
          Alcotest.test_case "commit waits for a write quorum" `Quick test_paxos_commit_waits_for_write_quorum;
          Alcotest.test_case "preparing leader adopts a register abort" `Quick
            test_paxos_coordinator_adopts_register_abort_in_preparing;
          Alcotest.test_case "recovery adopts the accepted value" `Quick test_paxos_recovery_adopts_accepted_value;
          Alcotest.test_case "recovery presumes abort on an empty register" `Quick
            test_paxos_recovery_presumes_abort_when_register_empty;
          Alcotest.test_case "nacked leader re-bids above the nack" `Quick
            test_paxos_nacked_leader_rebids_above_the_nack;
          Alcotest.test_case "backup-TM register decides alone" `Quick test_backup_tm_register_decides_alone;
          Alcotest.test_case "acceptor adapter replays its log" `Quick test_acceptor_adapter_replays_its_log;
          QCheck_alcotest.to_alcotest prop_paxos_register_write_once;
        ] );
      ( "agent-termination",
        [
          Alcotest.test_case "prepare arms the inquiry timer" `Quick test_inquiry_armed_on_prepare;
          Alcotest.test_case "inquiry sends DECISION-REQ and re-arms" `Quick
            test_inquiry_fires_sends_decision_req;
          Alcotest.test_case "DECISION-RESP commit" `Quick test_decision_resp_translates_to_commit;
          Alcotest.test_case "DECISION-RESP rollback" `Quick test_decision_resp_translates_to_rollback;
          Alcotest.test_case "recovery replay commits exactly once" `Quick
            test_recovery_replay_commits_once;
          Alcotest.test_case "undecided recovery re-arms the inquiry" `Quick
            test_recovery_undecided_rearms_inquiry;
        ] );
      ( "coordinator",
        [
          Alcotest.test_case "start broadcasts and executes" `Quick test_coordinator_happy_path;
          Alcotest.test_case "commit needs votes from every site" `Quick
            test_coordinator_commit_requires_both_votes;
          Alcotest.test_case "counted quorum falls to duplicate READY" `Quick
            test_coordinator_counted_quorum_bug;
          Alcotest.test_case "refusal aborts" `Quick test_coordinator_refusal_aborts;
          Alcotest.test_case "exec timeout aborts" `Quick test_coordinator_exec_timeout_aborts;
          Alcotest.test_case "step on a copy leaves st" `Quick test_coordinator_step_on_copy_leaves_state;
        ] );
      ( "copy-isolation",
        [
          Alcotest.test_case "explored states: copies step alike, originals stay" `Quick
            test_copy_isolation_over_explored_states;
        ] );
      ( "coordinator-recovery",
        [
          Alcotest.test_case "force-log records at begin/prepared/decide" `Quick
            test_coordinator_force_log_records;
          Alcotest.test_case "recovery re-drives a logged COMMIT" `Quick
            test_coordinator_crash_then_recover_redrives_commit;
          Alcotest.test_case "no decision record: presumed abort" `Quick
            test_coordinator_recover_presumes_abort;
          Alcotest.test_case "DECISION-REQ answered once decided" `Quick
            test_coordinator_answers_decision_req;
          Alcotest.test_case "crash of a finished round is a no-op" `Quick
            test_coordinator_crash_when_finished_is_a_no_op;
          QCheck_alcotest.to_alcotest prop_retired_reply_is_the_finished_machine;
        ] );
      ( "explore",
        [
          Alcotest.test_case "2x2 reorderings exhaust clean" `Slow test_explore_reorderings_clean;
          Alcotest.test_case "2x1 fault mix exhausts clean" `Slow test_explore_faults_clean;
          Alcotest.test_case "2x1 lossy network exhausts clean" `Slow test_explore_losses_clean;
          Alcotest.test_case "unilateral-abort gate pins its counts" `Slow
            test_explore_uabort_gate_counts;
          Alcotest.test_case "alive check in the commit gap begins nothing" `Quick
            test_explore_commit_gap;
          Alcotest.test_case "fake quorum rediscovered under Counted" `Quick test_explore_finds_fake_quorum;
          Alcotest.test_case "dedup quorum survives the same adversary" `Quick
            test_explore_dedup_quorum_clean;
          Alcotest.test_case "coordinator crash + termination exhausts clean" `Slow
            test_explore_coord_crash_clean;
          Alcotest.test_case "ablated termination blocks forever (I5)" `Slow
            test_explore_no_termination_blocks_forever;
          Alcotest.test_case "paxos f=1 survives F kills" `Slow test_explore_paxos_f_kills_clean;
          Alcotest.test_case "paxos f=1 blocks at F+1 kills (I5)" `Slow
            test_explore_paxos_f_plus_1_kills_block;
          Alcotest.test_case "backup-TM blocks at one kill (I5)" `Quick
            test_explore_backup_tm_single_kill_blocks;
          Alcotest.test_case "online reconfigure + handover exhausts clean" `Slow
            test_explore_reconfigure_clean;
          Alcotest.test_case "ablated handover certifies unsoundly (I6)" `Slow
            test_explore_no_handover_unsound;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "certified vote carries the prepare SN" `Quick test_certified_vote;
          Alcotest.test_case "bare COMMIT ignored at a prepared participant" `Quick
            test_cert_gate_ignores_bare_commit;
          Alcotest.test_case "bare ROLLBACK ignored at a prepared participant" `Quick
            test_cert_gate_ignores_bare_rollback;
          Alcotest.test_case "stale SN refused beyond the drift bound" `Quick test_drift_refusal;
          Alcotest.test_case "lying agent promises nothing durable" `Quick
            test_lying_prepare_promises_nothing;
          Alcotest.test_case "suspicion timeout escalates to inquiry" `Quick
            test_suspicion_escalates;
          QCheck_alcotest.to_alcotest prop_zero_adversary_byte_identical;
        ] );
      ( "adversary-explore",
        [
          Alcotest.test_case "vote denial rediscovered (I2)" `Slow test_explore_vote_denial_violates;
          Alcotest.test_case "certificates survive vote denial" `Slow
            test_explore_vote_denial_defended_clean;
          Alcotest.test_case "equivocation rediscovered (I4)" `Quick test_explore_equivocation_violates;
          Alcotest.test_case "certificates + suspicion survive equivocation" `Slow
            test_explore_equivocation_defended_clean;
          Alcotest.test_case "SN drift rediscovered (I3)" `Slow test_explore_sn_drift_violates;
          Alcotest.test_case "drift rejection survives the stale clock" `Slow
            test_explore_sn_drift_defended_clean;
        ] );
      ( "termination-reliable",
        [
          Alcotest.test_case "inquiry arms without message loss" `Slow
            test_inquiry_arms_on_reliable_network;
        ] );
      ( "timer-hygiene",
        [
          Alcotest.test_case "quiesced run leaves no live timers" `Quick test_quiesced_no_live_timers;
          Alcotest.test_case "quiesced run (duplicating network)" `Quick
            test_quiesced_no_live_timers_dup_network;
          Alcotest.test_case "quiesced run: link state bounded over 400 globals" `Quick
            test_quiesced_many_globals;
        ] );
      ( "retirement",
        [
          Alcotest.test_case "finished rounds leave nothing behind" `Quick test_retirement_reliable;
          Alcotest.test_case "finished rounds leave nothing behind (drops, dups, crashes)" `Quick
            test_retirement_faults;
          Alcotest.test_case "a retired address answers from the log" `Quick
            test_retired_address_answers_from_log;
        ] );
      ( "group-commit",
        [
          Alcotest.test_case "PREPAREs buffer until the flush" `Quick
            test_gc_prepare_buffers_until_flush;
          Alcotest.test_case "max_batch fill forces inline" `Quick test_gc_max_batch_forces_inline;
          Alcotest.test_case "decision staged until the flush" `Quick
            test_gc_decision_staged_until_flush;
          Alcotest.test_case "crash loses staged state" `Quick test_gc_crash_loses_staged_state;
          QCheck_alcotest.to_alcotest prop_gc_batched_equals_sequential;
          Alcotest.test_case "e2e forces drop to ~1 per batch" `Quick test_gc_forces_drop_per_batch;
          Alcotest.test_case "batched run digest deterministic" `Quick
            test_gc_run_digest_deterministic;
          Alcotest.test_case "2x2 batched exploration exhausts clean" `Slow
            test_explore_group_commit_clean;
        ] );
    ]
