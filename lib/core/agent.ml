(* The 2PC Agent's effectful shell. The protocol itself — the 2PC
   Participant role and the three Certifier algorithms of the paper's
   Appendix (alive check, extended prepare certification, commit
   certification), subtransaction resubmission, crash volatility and
   log-driven recovery — lives in the effect-free state machine
   {!Hermes_protocol.Agent_sm}; this module owns the machine's state
   (which [step] updates in place) and everything imperative around
   it:

   - translating network deliveries, timer pops, LTM callbacks (command
     completion, commit completion, UAN) and crash/recover calls into
     machine inputs, with the read-only environment (the stable log's
     views sampled at input time; [Ltm.is_alive] and [Ltm.last_op_done]
     looked up per gid while the machine steps);
   - interpreting the returned effect list, in order, against the
     network, the engine's timers, the {!Agent_log}, the LTM and the
     observability layer.

   The interpretation is order-faithful to the historical imperative
   agent (sends, timer arms/cancels, log forces and LTM calls happen in
   the exact sequence the old code performed them), which keeps runs
   byte-identical at a fixed seed.

   Bookkeeping owned here, keyed by gid: the LTM transaction handle of
   the current incarnation, the live alive-check/commit-retry timers,
   and the stable Agent log itself (it must survive [crash], which
   resets the machine's volatile state). Stale callbacks of superseded
   incarnations are filtered inside the machine by incarnation tags, so
   the shell never needs to reason about protocol state. *)

open Hermes_kernel
module Engine = Hermes_sim.Engine
module Ltm = Hermes_ltm.Ltm
module Bound = Hermes_ltm.Bound
module Trace = Hermes_ltm.Trace
module Op = Hermes_history.Op
module Network = Hermes_net.Network
module Obs = Hermes_obs.Obs
module Tracer = Hermes_obs.Tracer
module Registry = Hermes_obs.Registry
module Histogram = Hermes_obs.Histogram
module Agent_sm = Hermes_protocol.Agent_sm
module Agent_log = Hermes_protocol.Agent_log
module Local_txn = Hermes_protocol.Local_txn
module Types = Hermes_protocol.Types

let src = Logs.Src.create "hermes.agent" ~doc:"2PC Agent / Certifier events"

module Log = (val Logs.src_log src : Logs.LOG)

type stats = {
  mutable prepared : int;
  mutable refused_extension : int;
  mutable refused_interval : int;
  mutable refused_dead : int;
  mutable refused_epoch : int;
  mutable refused_drift : int;  (* PREPAREs rejected by the SN staleness bound *)
  mutable resubmissions : int;
  mutable commit_retries : int;
  mutable local_commits : int;
  mutable rollbacks : int;
  mutable crashes : int;
  mutable recovered : int;  (* in-doubt subtransactions rebuilt from the log *)
}

type t = {
  site : Site.t;
  engine : Engine.t;
  ltm : Ltm.t;
  net : Network.t;
  trace : Trace.t;
  config : Config.t;
  termination : bool;  (* coordinator crashes enabled: inquiry timers + in-doubt metrics live *)
  epoch : unit -> int;
      (* the installed placement epoch, sampled per input (the Dtm owns
         the shard map); constantly 0 on runs that never reconfigure *)
  log : Agent_log.t;  (* stable storage: survives crash *)
  mutable machine : Agent_sm.state;  (* the volatile protocol state *)
  txns : Ltm.txn Int_tbl.t;  (* current incarnation's LTM handle *)
  alive_timers : Engine.timer Int_tbl.t;
  retry_timers : Engine.timer Int_tbl.t;
  inquiry_timers : Engine.timer Int_tbl.t;
  mutable flush_timer : Engine.timer option;  (* group commit: the batch window *)
  stats : stats;
  obs : Obs.t option;
  commit_delay : Histogram.t option;  (* resolved once: decision-to-local-commit ticks *)
  mutable in_doubt_now : int;  (* prepared, no decision yet (tracked volatile) *)
  in_doubt_gauge : Registry.Gauge.t option;
  in_doubt_time : Histogram.t option;  (* prepare-to-decision ticks *)
}

let create ~site ~engine ~ltm ~net ~trace ?obs ?(termination = false) ?(epoch = fun () -> 0)
    ~config () =
  (* The in-doubt instruments exist only when coordinator crashes are
     enabled for the run — or when the mutual-suspicion timeout arms the
     same escalation path against gray coordinators: runs with neither
     must export byte-identical metrics (the golden-digest guard). *)
  let term_obs = if termination || config.Config.suspicion_timeout > 0 then obs else None in
  {
    site;
    engine;
    ltm;
    net;
    trace;
    config;
    termination;
    epoch;
    log = Agent_log.create ();
    machine = Agent_sm.init ~site;
    txns = Int_tbl.create 32;
    alive_timers = Int_tbl.create 32;
    retry_timers = Int_tbl.create 32;
    inquiry_timers = Int_tbl.create 32;
    flush_timer = None;
    stats =
      {
        prepared = 0;
        refused_extension = 0;
        refused_interval = 0;
        refused_dead = 0;
        refused_epoch = 0;
        refused_drift = 0;
        resubmissions = 0;
        commit_retries = 0;
        local_commits = 0;
        rollbacks = 0;
        crashes = 0;
        recovered = 0;
      };
    obs;
    commit_delay =
      Option.map (fun o -> Registry.histogram (Obs.metrics o) ~site "agent.commit_delay") obs;
    in_doubt_now = 0;
    in_doubt_gauge =
      Option.map (fun o -> Registry.gauge (Obs.metrics o) ~site "agent.in_doubt") term_obs;
    in_doubt_time =
      Option.map (fun o -> Registry.histogram (Obs.metrics o) ~site "agent.in_doubt_time") term_obs;
  }

let address t = Wire.Agent t.site
let stats t = t.stats
let alive_table t = t.machine.Agent_sm.table
let agent_log t = t.log
let n_prepared t = Agent_sm.n_prepared t.machine
let flush_pending t = Agent_sm.flush_pending t.machine
let now t = Engine.now t.engine

let txn_exn t gid =
  match Int_tbl.find_opt t.txns gid with
  | Some txn -> txn
  | None -> Fmt.invalid_arg "agent %a: no LTM transaction for T%d" Site.pp t.site gid

(* The read-only LTM view the machine certifies against, looked up per
   gid while the machine steps. That is as exact as a snapshot taken when
   the input is built: the machine reads these before any of its
   LTM-mutating effects is interpreted. *)
let view t gid =
  match Int_tbl.find_opt t.txns gid with
  | Some txn -> Some { Agent_sm.alive = Ltm.is_alive txn; last_op_done = Ltm.last_op_done txn }
  | None -> None

let env t =
  {
    Agent_sm.now = now t;
    views = view t;
    max_committed_sn = Agent_log.max_committed_sn t.log;
    (* The termination protocol engages whenever coordinator crashes are
       enabled for this run, so crash-free runs arm no extra timers and
       stay byte-identical.  It must NOT additionally require a lossy
       network: a coordinator crash strands in-doubt participants on a
       perfectly reliable network too — the crash itself loses the
       in-flight decision. *)
    inquiry = t.termination;
    epoch = t.epoch ();
  }

(* ------------------------------------------------------------------ *)
(* Effect interpretation                                               *)
(* ------------------------------------------------------------------ *)

let emit_event t (ev : Agent_sm.event) =
  match ev with
  | Ev_alive_check { gid; alive } ->
      Obs.emit t.obs ~at:(now t) (fun () -> Tracer.Alive_check { site = t.site; gid; alive })
  | Ev_resubmission { gid; inc } ->
      t.stats.resubmissions <- t.stats.resubmissions + 1;
      Obs.emit t.obs ~at:(now t) (fun () -> Tracer.Resubmission { site = t.site; gid; inc });
      Log.debug (fun m ->
          m "[%a %a] resubmitting T%d as incarnation %d" Time.pp (now t) Site.pp t.site gid inc)
  | Ev_prepare_certification { gid; sn; verdict } -> (
      match verdict with
      | Agent_sm.V_ready ->
          Log.debug (fun m ->
              m "[%a %a] READY T%d (sn %a)" Time.pp (now t) Site.pp t.site gid Sn.pp sn);
          t.stats.prepared <- t.stats.prepared + 1;
          Obs.emit t.obs ~at:(now t) (fun () ->
              Tracer.Prepare_certification { site = t.site; gid; sn; verdict = Tracer.Ready })
      | V_refused_extension { committed_sn } ->
          Obs.emit t.obs ~at:(now t) (fun () ->
              Tracer.Prepare_certification
                { site = t.site; gid; sn; verdict = Tracer.Refused_extension { committed_sn } })
      | V_refused_interval { conflicting_gid; conflicting; candidate } ->
          Obs.emit t.obs ~at:(now t) (fun () ->
              Tracer.Prepare_certification
                {
                  site = t.site;
                  gid;
                  sn;
                  verdict = Tracer.Refused_interval { conflicting_gid; conflicting; candidate };
                })
      | V_refused_dead ->
          Obs.emit t.obs ~at:(now t) (fun () ->
              Tracer.Prepare_certification { site = t.site; gid; sn; verdict = Tracer.Refused_dead }))
  | Ev_refused { gid; refusal } -> (
      Log.info (fun m ->
          m "[%a %a] REFUSE T%d: %a" Time.pp (now t) Site.pp t.site gid Wire.pp_refusal refusal);
      match refusal with
      | Wire.Extension_refused -> t.stats.refused_extension <- t.stats.refused_extension + 1
      | Wire.Interval_refused -> t.stats.refused_interval <- t.stats.refused_interval + 1
      | Wire.Dead_refused -> t.stats.refused_dead <- t.stats.refused_dead + 1
      | Wire.Wrong_epoch -> t.stats.refused_epoch <- t.stats.refused_epoch + 1
      | Wire.Drift_refused -> t.stats.refused_drift <- t.stats.refused_drift + 1
      | Wire.Uncertified_refused -> ()
      | Wire.Scheduler_refused _ -> ())
  | Ev_commit_delayed { gid; sn; blocking_gid; blocking_sn } ->
      Log.debug (fun m ->
          m "[%a %a] commit certification holds T%d back (smaller SN prepared); retrying" Time.pp
            (now t) Site.pp t.site gid);
      t.stats.commit_retries <- t.stats.commit_retries + 1;
      Obs.emit t.obs ~at:(now t) (fun () ->
          Tracer.Commit_delayed { site = t.site; gid; sn; blocking_gid; blocking_sn })
  | Ev_commit_released { gid; waited; retries } ->
      t.stats.local_commits <- t.stats.local_commits + 1;
      (match t.commit_delay with Some h -> Histogram.record h waited | None -> ());
      Obs.emit t.obs ~at:(now t) (fun () ->
          Tracer.Commit_released { site = t.site; gid; waited; retries })
  | Ev_rollback _ -> t.stats.rollbacks <- t.stats.rollbacks + 1
  | Ev_crash { live; prepared } ->
      Log.info (fun m ->
          m "[%a %a] SITE CRASH: %d live transactions, %d prepared" Time.pp (now t) Site.pp t.site
            live prepared);
      t.stats.crashes <- t.stats.crashes + 1;
      Obs.emit t.obs ~at:(now t) (fun () -> Tracer.Site_crash { site = t.site; live; prepared })
  | Ev_recovered { gid; committed } ->
      t.stats.recovered <- t.stats.recovered + 1;
      Obs.emit t.obs ~at:(now t) (fun () -> Tracer.Recovered { site = t.site; gid });
      Log.info (fun m ->
          m "[%a %a] recovering in-doubt T%d from the Agent log%s" Time.pp (now t) Site.pp t.site
            gid
            (if committed then " (decision known: commit)" else ""));
      t.stats.resubmissions <- t.stats.resubmissions + 1
  | Ev_in_doubt { gid } ->
      t.in_doubt_now <- t.in_doubt_now + 1;
      (match t.in_doubt_gauge with Some g -> Registry.Gauge.set g t.in_doubt_now | None -> ());
      Log.debug (fun m ->
          m "[%a %a] T%d in doubt (%d open window(s))" Time.pp (now t) Site.pp t.site gid
            t.in_doubt_now)
  | Ev_decision { gid; committed; in_doubt } ->
      t.in_doubt_now <- t.in_doubt_now - 1;
      (match t.in_doubt_gauge with Some g -> Registry.Gauge.set g t.in_doubt_now | None -> ());
      (match t.in_doubt_time with Some h -> Histogram.record h in_doubt | None -> ());
      Log.debug (fun m ->
          m "[%a %a] T%d decision %s after %d tick(s) in doubt" Time.pp (now t) Site.pp t.site gid
            (if committed then "commit" else "rollback")
            in_doubt)
  | Ev_decision_inquiry { gid; inquiries } ->
      (match t.obs with
      | Some o when t.termination ->
          Registry.Counter.incr (Registry.counter (Obs.metrics o) ~site:t.site "agent.inquiries")
      | Some _ | None -> ());
      Log.debug (fun m ->
          m "[%a %a] T%d still in doubt: DECISION-REQ #%d to the coordinator" Time.pp (now t)
            Site.pp t.site gid inquiries)
  | Ev_suspicion { gid } ->
      (match t.obs with
      | Some o when t.config.Config.suspicion_timeout > 0 ->
          Registry.Counter.incr (Registry.counter (Obs.metrics o) ~site:t.site "agent.suspicions")
      | Some _ | None -> ());
      Log.info (fun m ->
          m "[%a %a] T%d suspects a gray coordinator: escalating to the termination path" Time.pp
            (now t) Site.pp t.site gid)
  | Ev_equivocation_detected { gid } ->
      (match t.obs with
      | Some o when t.config.Config.decision_certificates ->
          Registry.Counter.incr
            (Registry.counter (Obs.metrics o) ~site:t.site "coord.equivocations_detected")
      | Some _ | None -> ());
      Log.warn (fun m ->
          m "[%a %a] T%d: conflicting bare decision dropped (equivocation detected)" Time.pp
            (now t) Site.pp t.site gid)

let record_history t (h : Types.history_event) =
  match h with
  | H_prepare { gid; sn } ->
      Trace.record t.trace ~at:(now t)
        (Op.Prepare { txn = Txn.global gid; site = t.site; sn = Some sn })
  | H_global_commit _ | H_global_abort _ ->
      (* coordinator-side history entries; the agent machine never emits
         them *)
      assert false

let rec feed t input =
  List.iter (interpret t) (Agent_sm.step t.config t.machine input)

and interpret t (eff : Agent_sm.effect) =
  match eff with
  | Types.Send { dst; gid; payload } -> Network.send t.net ~src:(address t) ~dst ~gid payload
  | Types.Arm_timer { timer; delay } -> arm t timer ~delay
  | Types.Cancel_timer timer -> cancel t timer
  | Types.Force_log r -> Agent_log.apply t.log r
  | Types.Force_batch rs -> Agent_log.apply_batch t.log rs
  | Types.Stage_log _ ->
      (* the agent machine batches internally and emits [Force_batch];
         [Stage_log] is the coordinator machine's vocabulary *)
      assert false
  | Types.Ltm_call c -> ltm_call t c
  | Types.Record h -> record_history t h
  | Types.Emit ev -> emit_event t ev
  | Types.Invoke_gate | Types.Decide _ ->
      (* agent machines have no commit gate and decide nothing *)
      assert false

and arm t (timer : Agent_sm.timer) ~delay =
  match timer with
  | T_alive gid ->
      Int_tbl.replace t.alive_timers gid
        (Engine.schedule t.engine ~delay (fun () ->
             feed t (Agent_sm.Alive_fired { env = env t; gid })))
  | T_commit_retry gid ->
      Int_tbl.replace t.retry_timers gid
        (Engine.schedule t.engine ~delay (fun () ->
             feed t (Agent_sm.Retry_fired { env = env t; gid })))
  | T_backoff { gid; inc } ->
      (* deliberately uncancellable (the machine filters stale pops by
         incarnation), matching the historical engine event counts *)
      Engine.schedule_unit t.engine ~delay (fun () ->
          feed t (Agent_sm.Backoff_fired { env = env t; gid; inc }))
  | T_inquiry gid ->
      Int_tbl.replace t.inquiry_timers gid
        (Engine.schedule t.engine ~delay (fun () ->
             feed t (Agent_sm.Inquiry_fired { env = env t; gid })))
  | T_flush ->
      t.flush_timer <-
        Some
          (Engine.schedule t.engine ~delay (fun () ->
               t.flush_timer <- None;
               feed t (Agent_sm.Flush_fired { env = env t })))

and cancel t (timer : Agent_sm.timer) =
  let stop timers gid =
    match Int_tbl.find_opt timers gid with
    | Some tm ->
        Engine.cancel tm;
        Int_tbl.remove timers gid
    | None -> ()
  in
  match timer with
  | T_alive gid -> stop t.alive_timers gid
  | T_commit_retry gid -> stop t.retry_timers gid
  | T_backoff _ -> ()
  | T_inquiry gid -> stop t.inquiry_timers gid
  | T_flush -> (
      match t.flush_timer with
      | Some tm ->
          Engine.cancel tm;
          t.flush_timer <- None
      | None -> ())

and ltm_call t (c : Agent_sm.call) =
  match c with
  | L_begin { gid; inc } ->
      let owner = Txn.Incarnation.make ~txn:(Txn.global gid) ~site:t.site ~inc in
      Int_tbl.replace t.txns gid (Ltm.begin_txn t.ltm ~owner)
  | L_exec { gid; inc; purpose; cmd } ->
      Ltm.exec t.ltm (txn_exn t gid) cmd ~on_done:(fun result ->
          let result =
            match result with
            | Ltm.Done r -> Agent_sm.Done r
            | Ltm.Failed reason -> Agent_sm.Failed (Fmt.str "%a" Ltm.pp_abort_reason reason)
          in
          feed t (Agent_sm.Exec_done { env = env t; gid; inc; purpose; result }))
  | L_commit { gid; inc } ->
      (* A commit withheld by group commit may name an incarnation that a
         unilateral abort and a resubmission have since replaced: it is
         dropped, and the current incarnation commits on its own path. *)
      let txn = txn_exn t gid in
      if Local_txn.current (Ltm.status txn) ~inc then
        Ltm.commit t.ltm txn ~on_done:(fun result ->
            let committed = match result with Ltm.Committed -> true | Ltm.Commit_refused _ -> false in
            feed t (Agent_sm.Commit_done { env = env t; gid; inc; committed }))
  | L_abort { gid } -> Ltm.abort t.ltm (txn_exn t gid)
  | L_abort_all_live ->
      List.iter (fun txn -> ignore (Ltm.unilateral_abort t.ltm txn)) (Ltm.live_txns t.ltm)
  | L_hold_open { gid } -> Ltm.mark_held_open t.ltm (txn_exn t gid) true
  | L_hold_open_batch { gids } ->
      (* one (simulated) lock-manager round-trip for the whole vector *)
      List.iter (fun gid -> Ltm.mark_held_open t.ltm (txn_exn t gid) true) gids
  | L_commit_batch { txns } ->
      List.iter (fun (gid, inc) -> ltm_call t (Agent_sm.L_commit { gid; inc })) txns
  | L_watch_uan { gid; inc } ->
      Ltm.set_uan (txn_exn t gid) (fun () -> feed t (Agent_sm.Uan { env = env t; gid; inc }))
  | L_bind { gid } ->
      let items = Ltm.footprint (txn_exn t gid) in
      ignore (Agent_log.set_bound t.log ~gid items);
      Bound.bind (Ltm.bound_registry t.ltm) items
  | L_rebind { gid } ->
      (* The bound set is logged so it survives a crash. *)
      let items = Ltm.footprint (txn_exn t gid) in
      let old = Agent_log.set_bound t.log ~gid items in
      if old <> [] then Bound.unbind (Ltm.bound_registry t.ltm) old;
      Bound.bind (Ltm.bound_registry t.ltm) items
  | L_unbind { gid } ->
      let old = Agent_log.set_bound t.log ~gid [] in
      if old <> [] then Bound.unbind (Ltm.bound_registry t.ltm) old
  | L_forget { gid } ->
      Int_tbl.remove t.txns gid;
      Int_tbl.remove t.alive_timers gid;
      Int_tbl.remove t.retry_timers gid;
      Int_tbl.remove t.inquiry_timers gid

(* ------------------------------------------------------------------ *)
(* Inbound boundaries: network, crash, recovery                        *)
(* ------------------------------------------------------------------ *)

let handle t (msg : Wire.t) =
  feed t
    (Agent_sm.Deliver
       {
         env = env t;
         src = msg.Wire.src;
         gid = msg.Wire.gid;
         payload = msg.Wire.payload;
         log = Agent_log.view t.log ~gid:msg.Wire.gid;
       })

let attach t = Network.register t.net (address t) (handle t)

let crash t =
  (* The volatile in-doubt windows close with the crash (the gauge tracks
     volatile state); recovery reopens them from the log. *)
  let in_doubt_lost =
    Agent_sm.Int_map.fold
      (fun _ (sub : Agent_sm.sub) acc ->
        if sub.Agent_sm.state = Agent_sm.Prepared && sub.Agent_sm.decision_at = None then acc + 1
        else acc)
      t.machine.Agent_sm.subs 0
  in
  t.in_doubt_now <- t.in_doubt_now - in_doubt_lost;
  (match t.in_doubt_gauge with Some g -> Registry.Gauge.set g t.in_doubt_now | None -> ());
  feed t (Agent_sm.Crash { live = List.length (Ltm.live_txns t.ltm) });
  (* Drop the dead incarnations' bookkeeping: their scheduled callbacks
     (UANs of the collective abort, in-flight command completions) are
     filtered by the machine's incarnation tags when they pop. *)
  Int_tbl.reset t.txns;
  Int_tbl.reset t.alive_timers;
  Int_tbl.reset t.retry_timers;
  Int_tbl.reset t.inquiry_timers

(* Shard handover: thin shell over the machine's copy-on-write
   export/adopt/drop.
   The Dtm drives these around a reconfiguration — export at the losing
   site, adopt at the gainer before the new epoch serves traffic, drop
   at the gainer once the foreign gid's global decision lands. *)
let export_handover t ~gids = Agent_sm.export_handover t.machine ~gids
let adopt_handover t entries = t.machine <- Agent_sm.adopt_handover t.machine entries
let drop_foreign t ~gid = t.machine <- Agent_sm.drop_foreign t.machine ~gid

let recover t = feed t (Agent_sm.Recover { env = env t; entries = Agent_log.in_doubt t.log })
