(* The Coordinator's effectful shell. The protocol — command-by-command
   execution, the commit gate, PREPARE/vote collection, the decision and
   its acknowledged retransmission (paper §2, §5.2) — lives in the
   effect-free state machine {!Hermes_protocol.Coordinator_sm}; this
   module owns the machine's state and interprets its effect lists
   against the network, the engine's timers, the history trace, the
   metrics registry and the submitter's [on_done].

   Serial numbers are drawn here (the machine reads no clock): at
   [start] for the ticket baseline ([Config.sn_at_begin]), otherwise
   when the commit gate proceeds. Interpretation is
   order-faithful to the historical imperative coordinator, keeping runs
   byte-identical at a fixed seed. *)

open Hermes_kernel
module Engine = Hermes_sim.Engine
module Trace = Hermes_ltm.Trace
module Op = Hermes_history.Op
module Network = Hermes_net.Network
module Obs = Hermes_obs.Obs
module Registry = Hermes_obs.Registry
module Histogram = Hermes_obs.Histogram
module Sm = Hermes_protocol.Coordinator_sm
module Coordinator_log = Hermes_protocol.Coordinator_log
module Types = Hermes_protocol.Types

let src = Logs.Src.create "hermes.coordinator" ~doc:"2PC Coordinator events"

module Log = (val Logs.src_log src : Logs.LOG)

type reason = Types.reason =
  | Exec_failed of Site.t * string
  | Refused of Site.t * Wire.refusal
  | Gate_refused of string  (* CGM gave up on the commit: its global-lock timeout fired *)
  | Presumed_abort  (* coordinator crash recovery found no decision record *)
  | Register_abort  (* a recovery ballot of the replicated decision register chose abort *)

let pp_reason = Types.pp_reason

type outcome = Types.outcome = Committed | Aborted of reason

let pp_outcome = Types.pp_outcome

(* A commit gate lets a baseline scheduler (the CGM commit graph) sit
   between execution and the PREPARE phase: it lets the transaction
   proceed now or later. The default gate proceeds immediately. *)
type gate = gid:int -> sites:Site.t list -> proceed:(unit -> unit) -> unit

let open_gate : gate = fun ~gid:_ ~sites:_ ~proceed -> proceed ()

type t = {
  gid : int;
  site : Site.t;  (* the coordinating site, whose clock stamps the SN *)
  engine : Engine.t;
  net : Network.t;
  trace : Trace.t;
  config : Sm.config;
  sn_gen : unit -> Sn.t;
  gate : gate;
  obs : Obs.t option;
  on_done : outcome -> unit;
  log : Coordinator_log.t option;  (* the coordinating site's stable log *)
  batcher : Group_commit.t option;  (* the coordinating site's group-commit batcher *)
  mutable epoch : int;
      (* bumped by [crash]: staged-but-unforced writes and withheld
         effects of an older epoch are void — the crash lost them *)
  mutable machine : Sm.state;
  mutable exec_timer : Engine.timer option;
  mutable retransmit_timer : Engine.timer option;  (* decision or PREPARE retransmission *)
  mutable started_at : Time.t;
  mutable finished_at : Time.t;
}

let address t = Wire.Coordinator t.gid

let cancel_timer = function Some timer -> Engine.cancel timer | None -> ()

let log_inquiry_answer ~now ~gid ~asker ~committed =
  Log.debug (fun m ->
      m "[%a] T%d: DECISION-REQ from %a, answering %s" Time.pp now gid Site.pp asker
        (if committed then "commit" else "rollback"))

let emit_event t (ev : Sm.event) =
  match ev with
  | All_ready { sn } ->
      Log.debug (fun m ->
          m "[%a] T%d: all READY, committing (sn %a)" Time.pp (Engine.now t.engine) t.gid
            Fmt.(option Sn.pp)
            sn)
  | Deciding_abort reason ->
      Log.info (fun m ->
          m "[%a] T%d: global abort (%a)" Time.pp (Engine.now t.engine) t.gid pp_reason reason)
  | Retransmitting_decision { unacked } ->
      Log.debug (fun m ->
          m "[%a] T%d: retransmitting decision to %d unacknowledged participant(s)" Time.pp
            (Engine.now t.engine) t.gid unacked)
  | Retransmitting_prepare { silent } ->
      Log.debug (fun m ->
          m "[%a] T%d: retransmitting PREPARE to %d silent participant(s)" Time.pp
            (Engine.now t.engine) t.gid silent)
  | Recovered { decision } ->
      (match t.obs with
      | Some o ->
          let name =
            match decision with
            | Some _ -> "coord.recovered_decisions"
            | None -> "coord.presumed_aborts"
          in
          Registry.Counter.incr (Registry.counter (Obs.metrics o) ~site:t.site name)
      | None -> ());
      Log.info (fun m ->
          m "[%a] T%d: coordinator recovered from the log (%s)" Time.pp (Engine.now t.engine) t.gid
            (match decision with
            | Some true -> "re-driving commit"
            | Some false -> "re-driving abort"
            | None -> "no decision record: presumed abort"))
  | Answering_inquiry { asker; committed } ->
      log_inquiry_answer ~now:(Engine.now t.engine) ~gid:t.gid ~asker ~committed
  | Replicating_decision { acceptors } ->
      Log.debug (fun m ->
          m "[%a] T%d: proposing commit to %d acceptor(s) at ballot 0" Time.pp
            (Engine.now t.engine) t.gid acceptors)
  | Retransmitting_proposal { unacked } ->
      Log.debug (fun m ->
          m "[%a] T%d: re-driving the decision register (%d outstanding)" Time.pp
            (Engine.now t.engine) t.gid unacked)
  | Asking_register { acceptors } ->
      (match t.obs with
      | Some o ->
          Registry.Counter.incr (Registry.counter (Obs.metrics o) ~site:t.site "coord.register_inquiries")
      | None -> ());
      Log.info (fun m ->
          m "[%a] T%d: recovered undecided, asking the %d-acceptor register" Time.pp
            (Engine.now t.engine) t.gid acceptors)
  | Adopted { committed } ->
      (match t.obs with
      | Some o ->
          Registry.Counter.incr (Registry.counter (Obs.metrics o) ~site:t.site "coord.adopted_decisions")
      | None -> ());
      Log.info (fun m ->
          m "[%a] T%d: adopted the register's decision (%s)" Time.pp (Engine.now t.engine) t.gid
            (if committed then "commit" else "rollback"))

let record_history t (h : Types.history_event) =
  match h with
  | H_global_commit { gid } ->
      (* Record the decision in stable storage: the global commit. *)
      Trace.record t.trace ~at:(Engine.now t.engine) (Op.Global_commit (Txn.global gid))
  | H_global_abort { gid } ->
      Trace.record t.trace ~at:(Engine.now t.engine) (Op.Global_abort (Txn.global gid))
  | H_prepare _ -> assert false (* agent-side history entry *)

let decide t outcome =
  t.finished_at <- Engine.now t.engine;
  (match t.obs with
  | Some o ->
      let m = Obs.metrics o in
      let outcome_name =
        match outcome with Committed -> "coord.committed" | Aborted _ -> "coord.aborted"
      in
      Registry.Counter.incr (Registry.counter m ~site:t.site outcome_name);
      let retransmissions = t.machine.Sm.retransmissions in
      if retransmissions > 0 then
        Registry.Counter.add (Registry.counter m ~site:t.site "coord.retransmissions") retransmissions;
      Histogram.record
        (Registry.histogram m ~site:t.site "coord.latency")
        (Time.diff t.finished_at t.started_at)
  | None -> ());
  t.on_done outcome

let rec feed t input =
  run_effects t (Sm.step t.config t.machine input)

(* Walk a step's effects in order. [Stage_log] parks the record and the
   *rest of the step* at the site's batcher — both run only when the
   batch force-writes, and only if this coordinator has not crashed in
   between (the epoch guard): staged-but-unforced state is volatile. *)
and run_effects t = function
  | [] -> ()
  | (Types.Stage_log r : Sm.effect) :: rest -> (
      match t.batcher with
      | None ->
          (* no site batcher wired (direct [start] in tests): degenerate
             to an immediate force *)
          log_force t r;
          run_effects t rest
      | Some b ->
          let epoch = t.epoch in
          Group_commit.stage b
            {
              Group_commit.write =
                (fun () ->
                  match t.log with
                  | Some log when t.epoch = epoch -> Coordinator_log.stage log ~gid:t.gid r
                  | Some _ | None -> ());
              release = (fun () -> if t.epoch = epoch then run_effects t rest);
            })
  | eff :: rest ->
      interpret t eff;
      run_effects t rest

and log_force t r =
  match t.log with
  | Some log -> Coordinator_log.apply log ~gid:t.gid r
  | None -> () (* log-less coordinators (direct [start] in tests) stay volatile *)

and interpret t (eff : Sm.effect) =
  match eff with
  | Types.Send { dst; gid; payload } -> Network.send t.net ~src:(address t) ~dst ~gid payload
  | Types.Arm_timer { timer; delay } -> arm t timer ~delay
  | Types.Cancel_timer timer -> (
      match timer with
      | Sm.Exec_timeout ->
          cancel_timer t.exec_timer;
          t.exec_timer <- None
      | Sm.Retransmit | Sm.Prepare_retransmit ->
          cancel_timer t.retransmit_timer;
          t.retransmit_timer <- None)
  | Types.Force_log r -> log_force t r
  | Types.Stage_log _ -> assert false (* consumed by [run_effects] *)
  | Types.Force_batch _ -> assert false (* agent-machine vocabulary *)
  | Types.Ltm_call _ -> . (* no LTM: the payload is empty *)
  | Types.Record h -> record_history t h
  | Types.Emit ev -> emit_event t ev
  | Types.Invoke_gate ->
      (* All commands executed: the application submits the global
         Commit. The gate may answer synchronously (the default gate
         does) — [Invoke_gate] is always the machine's last effect, so
         re-entering [feed] from here is safe. *)
      t.gate ~gid:t.gid ~sites:t.machine.Sm.participants
        ~proceed:(fun () ->
          let sn =
            if t.config.Sm.certifier.Config.sn_at_begin then None else Some (t.sn_gen ())
          in
          feed t (Sm.Gate_opened { sn; lossy = Network.lossy t.net }))
  | Types.Decide outcome -> decide t outcome

and arm t (timer : Sm.timer) ~delay =
  match timer with
  | Sm.Exec_timeout ->
      t.exec_timer <- Some (Engine.schedule t.engine ~delay (fun () -> feed t Sm.Exec_timeout_fired))
  | Sm.Retransmit ->
      t.retransmit_timer <-
        Some (Engine.schedule t.engine ~delay (fun () -> feed t Sm.Retransmit_fired))
  | Sm.Prepare_retransmit ->
      t.retransmit_timer <-
        Some (Engine.schedule t.engine ~delay (fun () -> feed t Sm.Prepare_retransmit_fired))

let handle t (msg : Wire.t) =
  match msg.Wire.src with
  | Wire.Agent src -> feed t (Sm.From_agent { src; payload = msg.Wire.payload })
  | Wire.Acceptor { idx; _ } -> feed t (Sm.From_acceptor { idx; payload = msg.Wire.payload })
  | Wire.Coordinator _ -> assert false

let start ?(gate = open_gate) ?obs ?log ?batcher ?(epoch = 0) ~gid ~site ~engine ~net ~trace
    ~config ~sn_gen ~program ~on_done () =
  (* [epoch] is the placement epoch stamped on BEGIN/EXEC — distinct from
     the group-commit crash epoch in [t.epoch] below. *)
  let sm_config = Sm.config ~epoch config in
  let sn = if config.Config.sn_at_begin then Some (sn_gen ()) else None in
  let t =
    {
      gid;
      site;
      engine;
      net;
      trace;
      config = sm_config;
      sn_gen;
      gate;
      obs;
      on_done;
      log;
      batcher;
      epoch = 0;
      machine =
        Sm.init ~gid ~site ~participants:(Program.sites program) ~steps:(Program.steps program) ~sn;
      exec_timer = None;
      retransmit_timer = None;
      started_at = Engine.now engine;
      finished_at = Engine.now engine;
    }
  in
  Network.register net (address t) (handle t);
  feed t Sm.Start;
  t

(* A retired round: its machine finished and its address left the
   network. What that machine would do with a late message is a function
   of the gid and the decision alone ({!Sm.finished_reply}), and the
   decision is in the coordinating site's log before any participant can
   acknowledge it, so the log answers in its place. *)
let retired_reply ~log ~gid (msg : Wire.t) =
  match Coordinator_log.find log ~gid with
  | Some { Coordinator_log.decision = Some committed; _ } ->
      Sm.finished_reply ~gid ~committed ~src:msg.Wire.src msg.Wire.payload
  | Some _ | None -> None

let answer_retired ~engine ~net ~log ~gid msg =
  match retired_reply ~log ~gid msg with
  | None -> false
  | Some effects ->
      List.iter
        (fun (eff : Sm.effect) ->
          match eff with
          | Types.Send { dst; gid; payload } ->
              Network.send net ~src:(Wire.Coordinator gid) ~dst ~gid payload
          | Types.Emit (Sm.Answering_inquiry { asker; committed }) ->
              log_inquiry_answer ~now:(Engine.now engine) ~gid ~asker ~committed
          | _ -> assert false (* a finished round only answers and logs *))
        effects;
      true

(* A crash of the coordinating site: the machine's volatile state is
   gone (the Crash input silences the armed timers; the stale machine is
   replaced at [recover]). The network handler stays registered — the
   address is marked down by [Dtm], so deliveries during the outage are
   counted drops, exactly like a crashed agent's. *)
let crash t =
  (* Void this round's staged-but-unforced batcher items (write and
     release closures of the old epoch become no-ops): the crash loses
     exactly the records that were never forced. *)
  t.epoch <- t.epoch + 1;
  feed t Sm.Crash

(* Reboot: rebuild the machine from the site's coordinator log. A
   finished round needs nothing (every participant acknowledged, and a
   late DECISION-REQ is answered from the durable decision); anything
   else restarts from its log entry, re-driving the logged decision or
   presuming abort. *)
let recover t =
  if not t.machine.Sm.finished then
    match Option.bind t.log (Coordinator_log.recover ~gid:t.gid) with
    | None -> () (* never started (no log): nothing was promised anywhere *)
    | Some input ->
        t.machine <- Sm.init ~gid:t.gid ~site:t.site ~participants:[] ~steps:[] ~sn:None;
        feed t input

let finished t = t.machine.Sm.finished
let latency t = Time.diff t.finished_at t.started_at
let gid t = t.gid
let coordinating_site t = t.site
let retransmissions t = t.machine.Sm.retransmissions
