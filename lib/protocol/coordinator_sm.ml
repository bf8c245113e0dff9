(* The Coordinator, as an effect-free state machine (paper §2):
   executes the decomposed commands one by one, then drives standard
   two-phase commit — PREPARE to all, COMMIT iff every participant
   answered READY, ROLLBACK otherwise. See [Coordinator] in hermes.core
   for the effectful adapter; this module is transition rules only:
   [step] performs no effect, and everything outbound leaves as an
   ordered effect list.

   Ownership, as in [Agent_sm]: [step] owns its input state, updates it
   in place and returns only the effects. A caller that branches from a
   state (the model checker's DFS) steps on [copy st].

   Behaviour notes that the effect lists encode (and that the adapter
   relies on for byte-identical replays of the historical imperative
   implementation):
   - the serial number is *drawn by the adapter* (it reads the site
     clock) — at [init] for the ticket baseline ([Config.sn_at_begin]),
     otherwise at the commit gate's proceed, delivered via
     {!Gate_opened};
   - [Invoke_gate] and [Decide] are always the last effect of their
     step, so a synchronous gate (or a submitter resubmitting from
     [on_done]) may re-enter immediately;
   - timers are armed/cancelled exactly where the imperative code
     scheduled/cancelled them, so engine event statistics are
     unchanged. *)

open Hermes_kernel
open Types

type quorum =
  | Dedup  (* votes and acks deduplicated per site (correct) *)
  | Counted
      (* votes as a raw counter, duplicates included — the PR 3
         duplicate-READY fake-quorum bug, kept as a test-local
         configuration so the model checker can demonstrate it *)

type config = {
  certifier : Config.t;
  quorum : quorum;
  epoch : int;
      (* the placement epoch the round was resolved under; stamped into
         every BEGIN/EXEC so an agent holding a newer shard map refuses
         WRONG-EPOCH instead of executing misplaced work. 0 = static map. *)
}

let config ?(quorum = Dedup) ?(epoch = 0) certifier = { certifier; quorum; epoch }

(* Ticks to wait for a command reply before aborting (covers replies
   swallowed by a site crash). *)
let exec_timeout = 150_000

(* Ticks between COMMIT/ROLLBACK retransmissions to unacknowledged
   participants. *)
let decision_retry_interval = 40_000

(* Ticks between PREPARE retransmissions to participants that have not
   voted; armed only on a lossy network (Network.lossy), so reliable runs
   are unchanged. *)
let prepare_retry_interval = 40_000

(* Group commit: when enabled, log records are staged for the site's
   shared batcher ([Stage_log]) instead of individually forced — the
   adapter withholds the rest of the step until the batch is
   force-written with one I/O. Recovery's presumed-abort record is never
   staged (see [Recover]): recovery is rare and must terminate even if
   no further traffic ever fills a batch. *)
let force config r = if Config.group_commit config.certifier then Stage_log r else Force_log r

type phase =
  | Executing
  | Preparing
  | Replicating of { proposing : bool }
      (* replicated commit only: every participant voted READY and the
         leader is writing [commit] into the decision register at ballot
         0 ([proposing = true]), or a rebooted undecided leader is asking
         the register for the outcome ([proposing = false]); COMMIT
         leaves only once a write quorum has accepted *)
  | Committing
  | Aborting of reason

type event =
  | All_ready of { sn : Sn.t option }  (* every participant voted READY *)
  | Deciding_abort of reason
  | Retransmitting_decision of { unacked : int }
  | Retransmitting_prepare of { silent : int }
  | Recovered of { decision : bool option }
      (* the machine was rebuilt from the coordinator log after a site
         crash; [None] means no decision record survived (presumed abort) *)
  | Answering_inquiry of { asker : Site.t; committed : bool }
  | Replicating_decision of { acceptors : int }
      (* ballot-0 proposal of [commit] sent to the register *)
  | Retransmitting_proposal of { unacked : int }
  | Asking_register of { acceptors : int }
      (* crash recovery found no decision record: under a replicated
         protocol the register, not presumed abort, owns the outcome *)
  | Adopted of { committed : bool }  (* the register's recovery decision, learned *)

type timer = Exec_timeout | Retransmit | Prepare_retransmit

(* Stable coordinator-log writes, all forced: the begin record makes an
   in-flight round discoverable at recovery (so a crash mid-execution is
   terminated by presumed abort instead of leaving participants holding
   locks forever), the prepared record pins the participant set the
   PREPAREs went to, and the decision record is what recovery re-drives. *)
type record =
  | R_begin of { participants : Site.t list }
  | R_prepared of { participants : Site.t list; sn : Sn.t }
  | R_decision of { committed : bool }

type state = {
  gid : int;
  site : Site.t;  (* the coordinating site, whose clock stamps the SN *)
  mutable participants : Site.t list;
  mutable phase : phase;
  mutable remaining_steps : (Site.t * int * Command.t) list;  (* (site, per-site step, command) *)
  mutable outstanding : (Site.t * int) option;  (* the command awaiting its reply *)
  mutable sn : Sn.t option;
  mutable voters : Site.Set.t;  (* sites whose READY/REFUSE arrived *)
  mutable votes : int;  (* raw vote count — what a [Counted] quorum decides on *)
  mutable refusal : (Site.t * Wire.refusal) option;
  mutable acked : Site.Set.t;  (* decision acknowledgements *)
  mutable replica_acks : int list;  (* acceptor idxs whose ballot-0 PX-ACCEPTED arrived *)
  mutable retransmissions : int;
  mutable exec_armed : bool;
  mutable retransmit_armed : bool;
  mutable prepare_retransmit_armed : bool;
  mutable finished : bool;  (* decided and acknowledged; swallow stray duplicates *)
}

type input =
  | Start
  | From_agent of { src : Site.t; payload : Wire.payload }
  | From_acceptor of { idx : int; payload : Wire.payload }
      (* replicated commit only: register traffic — ballot-0 PX-ACCEPTED
         acks, and DECISION-RESP when a recovery ballot decided for us *)
  | Exec_timeout_fired
  | Retransmit_fired
  | Prepare_retransmit_fired
  | Gate_opened of { sn : Sn.t option; lossy : bool }
      (* [sn] is a fresh serial number the adapter drew iff the config
         does not use [sn_at_begin]; [lossy] is the network's current
         lossiness, deciding whether PREPARE retransmission is armed *)
  | Crash
      (* the coordinating site crashed: volatile state is lost (the
         adapter discards the machine); the returned effects silence the
         armed timers *)
  | Recover of { participants : Site.t list; sn : Sn.t option; decision : bool option }
      (* rebuild from the coordinator log after the site reboots (fed to
         a fresh [init]): a logged decision is re-driven until every
         participant acknowledges; an undecided entry is presumed
         aborted *)

type effect = (timer, record, never, event) Types.effect

(* Tag each command with its per-site step index, so agents and the
   coordinator can recognize (and ignore) duplicated EXECs and replies.
   A step's index is the number of earlier steps at its site: a program
   has a few steps, so counting them beats building a table for each
   coordinator. *)
let number_steps steps =
  let rec go earlier = function
    | [] -> []
    | (site, cmd) :: rest ->
        let k = List.fold_left (fun n s -> if Site.equal s site then n + 1 else n) 0 earlier in
        (site, k, cmd) :: go (site :: earlier) rest
  in
  go [] steps

let init ~gid ~site ~participants ~steps ~sn =
  {
    gid;
    site;
    participants;
    phase = Executing;
    remaining_steps = number_steps steps;
    outstanding = None;
    sn;
    voters = Site.Set.empty;
    votes = 0;
    refusal = None;
    acked = Site.Set.empty;
    replica_acks = [];
    retransmissions = 0;
    exec_armed = false;
    retransmit_armed = false;
    prepare_retransmit_armed = false;
    finished = false;
  }

(* An independent state to step on when [st] itself must survive: every
   field holds an immutable value, so a fresh record is a full copy. *)
let copy st = { st with gid = st.gid }

let n_participants st = List.length st.participants

let send st ~dst payload = Send { dst; gid = st.gid; payload }

let send_to_all st payload = List.map (fun s -> send st ~dst:(Wire.Agent s) payload) st.participants

(* Replicated-commit geometry (0 acceptors under plain 2PC). *)
let n_acceptors config = Config.n_acceptors config.certifier
let replica_quorum config = Config.replica_quorum config.certifier
let replicated config = n_acceptors config > 0

let send_to_acceptors config st payload =
  List.init (n_acceptors config) (fun idx ->
      send st ~dst:(Wire.Acceptor { gid = st.gid; idx }) payload)

let decision_message config st =
  match st.phase with
  | Committing ->
      if config.certifier.Config.decision_certificates then
        Wire.Commit_certified { voters = st.participants }
      else Wire.Commit
  | _ ->
      if config.certifier.Config.decision_certificates then Wire.Rollback_certified
      else Wire.Rollback

(* The per-participant decision payloads, in participant-list order. An
   equivocating coordinator that decided COMMIT tells the first half of
   its participants the truth and sends the rest a forged ROLLBACK —
   necessarily bare, since its durable log holds commit and certificates
   cannot be forged. An abort is never equivocated: there is nothing to
   gain by telling a voter the truth it already fears. *)
let decision_sends config st =
  let honest = decision_message config st in
  let n = n_participants st in
  let equivocating =
    config.certifier.Config.adversary.Config.equivocate && st.phase = Committing && n > 1
  in
  List.mapi
    (fun i s -> (s, if equivocating && i * 2 >= n then Wire.Rollback else honest))
    st.participants

(* Start broadcasting the decision; decision retransmission replaces any
   armed PREPARE retransmission. *)
let start_decision config st phase =
  st.phase <- phase;
  st.acked <- Site.Set.empty;
  let cancels = if st.prepare_retransmit_armed then [ Cancel_timer Prepare_retransmit ] else [] in
  st.prepare_retransmit_armed <- false;
  st.retransmit_armed <- true;
  List.map (fun (s, payload) -> send st ~dst:(Wire.Agent s) payload) (decision_sends config st)
  @ cancels
  @ [ Arm_timer { timer = Retransmit; delay = decision_retry_interval } ]

let start_abort config st reason =
  let cancels = if st.exec_armed then [ Cancel_timer Exec_timeout ] else [] in
  st.exec_armed <- false;
  let effs = start_decision config st (Aborting reason) in
  cancels
  @ [
      Emit (Deciding_abort reason);
      force config (R_decision { committed = false });
      Record (H_global_abort { gid = st.gid });
    ]
  @ effs

(* After the decision completes, stray duplicate acknowledgements may
   still be in flight (a retransmitted COMMIT re-acked by a recovered
   agent); the [finished] state swallows them. *)
let finish st outcome =
  let cancels = if st.retransmit_armed then [ Cancel_timer Retransmit ] else [] in
  st.retransmit_armed <- false;
  st.finished <- true;
  cancels @ [ Decide outcome ]

let next_step config st =
  match st.remaining_steps with
  | (site, step, cmd) :: rest ->
      let cancels = if st.exec_armed then [ Cancel_timer Exec_timeout ] else [] in
      st.remaining_steps <- rest;
      st.outstanding <- Some (site, step);
      st.exec_armed <- true;
      [ send st ~dst:(Wire.Agent site) (Wire.Exec { step; cmd; epoch = config.epoch }) ]
      @ cancels
      @ [ Arm_timer { timer = Exec_timeout; delay = exec_timeout } ]
  | [] ->
      let cancels = if st.exec_armed then [ Cancel_timer Exec_timeout ] else [] in
      (* All commands executed: the application submits the global Commit.
         The gate (a baseline scheduler's hook) may hold it; the
         adapter answers with [Gate_opened] when it proceeds. *)
      st.exec_armed <- false;
      st.outstanding <- None;
      cancels @ [ Invoke_gate ]

let is_outstanding st site step =
  match st.outstanding with Some (s, k) -> Site.equal s site && k = step | None -> false

(* What one arriving vote did to the tally. *)
type tally = Ignored | Partial | Complete

(* One vote arrived. Under [Dedup] a repeated voter is ignored; under
   [Counted] the raw count decides — two copies of one READY then look
   like a quorum (the historical fake-quorum bug). *)
let note_vote config st src =
  if config.quorum = Dedup && Site.Set.mem src st.voters then Ignored
  else begin
    st.voters <- Site.Set.add src st.voters;
    st.votes <- st.votes + 1;
    let counted =
      match config.quorum with Dedup -> Site.Set.cardinal st.voters | Counted -> st.votes
    in
    if counted = n_participants st then Complete else Partial
  end

(* The commit point. Under plain 2PC the leader's own forced decision
   record *is* the commit point; under a replicated protocol this runs
   only once a write quorum of acceptors has accepted the ballot-0
   proposal (the leader's log entry is then a local convenience, the
   register is authoritative). *)
let commit_point config st =
  let effs = start_decision config st Committing in
  force config (R_decision { committed = true }) :: Record (H_global_commit { gid = st.gid }) :: effs

let all_ready config st =
  if st.refusal = None then
    if replicated config then begin
      (* Propose [commit] at ballot 0 and wait for a write quorum; the
         retransmission timer re-drives the proposal against slow or
         rebooting acceptors. A fast ABORT never needs the register: a
         recovery ballot that sees no accepted value aborts too. *)
      let cancels = if st.prepare_retransmit_armed then [ Cancel_timer Prepare_retransmit ] else [] in
      st.phase <- Replicating { proposing = true };
      st.replica_acks <- [];
      st.prepare_retransmit_armed <- false;
      st.retransmit_armed <- true;
      Emit (All_ready { sn = st.sn })
      :: Emit (Replicating_decision { acceptors = n_acceptors config })
      :: send_to_acceptors config st (Wire.Px_accept { ballot = 0; committed = true })
      @ cancels
      @ [ Arm_timer { timer = Retransmit; delay = decision_retry_interval } ]
    end
    else
      let effs = commit_point config st in
      Emit (All_ready { sn = st.sn }) :: effs
  else
    let site, refusal = Option.get st.refusal in
    start_abort config st (Refused (site, refusal))

(* The termination protocol's server side: an in-doubt participant asks
   for the outcome; any coordinator that has decided (including a
   finished one, and a rebooted incarnation replaying its log) answers
   from its durable decision. *)
let inquiry_answer ~gid ~asker ~committed =
  [
    Emit (Answering_inquiry { asker; committed });
    Send { dst = Wire.Agent asker; gid; payload = Wire.Decision_resp { committed } };
  ]

let decided_commit st = match st.phase with Committing -> true | _ -> false
let answer_inquiry st src = inquiry_answer ~gid:st.gid ~asker:src ~committed:(decided_commit st)

(* A finished round's answer to a late message, a function of its gid and
   decision alone: a DECISION-REQ that raced the last acknowledgement is
   answered with the decision, long since durable; stray duplicates of any
   agent reply (a duplicating network, a retransmitted decision re-acked
   by a recovered agent) and stale register traffic are swallowed. [None]
   for a message a finished round never expects. The machine and the
   stand-in that answers for a retired coordinator both answer through
   this, so the two cannot drift. *)
let finished_reply ~gid ~committed ~(src : Wire.address) (payload : Wire.payload) :
    effect list option =
  match (src, payload) with
  | Wire.Acceptor _, _ -> Some []
  | ( Wire.Agent _,
      ( Wire.Commit_ack | Wire.Rollback_ack | Wire.Ready | Wire.Ready_certified _ | Wire.Refuse _
      | Wire.Exec_ok _ | Wire.Exec_failed _ ) ) ->
      Some []
  | Wire.Agent asker, Wire.Decision_req -> Some (inquiry_answer ~gid ~asker ~committed)
  | (Wire.Agent _ | Wire.Coordinator _), _ -> None

let finished_step st ~src payload =
  match finished_reply ~gid:st.gid ~committed:(decided_commit st) ~src payload with
  | Some effs -> effs
  | None -> Fmt.failwith "finished coordinator T%d: unexpected %a" st.gid Wire.pp_payload payload

(* The register decided without us (a recovery ballot ran while we were
   proposing, crashed, or rebooting): adopt its outcome. The decision
   record is forced directly even under group commit — like recovery's
   presumed abort, adoption is rare and must terminate even if no
   further traffic ever fills a batch. *)
let adopt config st committed =
  let cancels = if st.retransmit_armed then [ Cancel_timer Retransmit ] else [] in
  st.retransmit_armed <- false;
  if committed then
    let effs = start_decision config st Committing in
    Emit (Adopted { committed })
    :: Force_log (R_decision { committed = true })
    :: Record (H_global_commit { gid = st.gid })
    :: cancels
    @ effs
  else
    let effs = start_decision config st (Aborting Register_abort) in
    Emit (Adopted { committed })
    :: Emit (Deciding_abort Register_abort)
    :: Force_log (R_decision { committed = false })
    :: Record (H_global_abort { gid = st.gid })
    :: cancels
    @ effs

(* A decision acknowledgement; the last one finishes the round. *)
let ack st src outcome =
  if Site.Set.mem src st.acked then []
  else begin
    st.acked <- Site.Set.add src st.acked;
    if Site.Set.cardinal st.acked = n_participants st then finish st outcome else []
  end

let handle_from_agent config st src payload =
  if st.finished then finished_step st ~src:(Wire.Agent src) payload
  else
    match (st.phase, payload) with
    | (Committing | Aborting _), Wire.Decision_req -> answer_inquiry st src
    | (Executing | Preparing | Replicating _), Wire.Decision_req ->
        (* Undecided: stay silent, the asker's inquiry timer re-asks once
           a decision exists (under a replicated protocol the inquiry
           also fans out to the acceptors, which run recovery). *)
        []
    | Executing, Wire.Exec_ok { step; _ } when is_outstanding st src step ->
        let cancels = if st.exec_armed then [ Cancel_timer Exec_timeout ] else [] in
        st.exec_armed <- false;
        cancels @ next_step config st
    | Executing, Wire.Exec_ok _ ->
        (* A duplicated reply to an already-answered command: ignore. *)
        []
    | Executing, Wire.Exec_failed { step; reason } when is_outstanding st src step ->
        start_abort config st (Exec_failed (src, reason))
    | Executing, Wire.Exec_failed _ -> []
    | Executing, Wire.Refuse r ->
        (* A WRONG-EPOCH refusal of BEGIN/EXEC: the round was resolved
           under a superseded placement map. Abort it; the submitter's
           resubmission re-resolves through the installed map. *)
        start_abort config st (Refused (src, r))
    | Preparing, Wire.Ready when config.certifier.Config.decision_certificates -> (
        (* A bare vote where a certificate is required: the voter holds
           no durable prepare record behind its promise (a liar, or a
           forgery) — count it as a refusal, so the round aborts instead
           of committing on a vote nobody can stand behind. *)
        match note_vote config st src with
        | Ignored -> []
        | (Partial | Complete) as tally ->
            if st.refusal = None then st.refusal <- Some (src, Wire.Uncertified_refused);
            if tally = Complete then
              let site, refusal = Option.get st.refusal in
              start_abort config st (Refused (site, refusal))
            else [])
    | Preparing, (Wire.Ready | Wire.Ready_certified _) -> (
        match note_vote config st src with
        | Complete -> all_ready config st
        | Ignored | Partial -> [])
    | Preparing, Wire.Refuse r -> (
        match note_vote config st src with
        | Ignored -> []
        | (Partial | Complete) as tally ->
            if st.refusal = None then st.refusal <- Some (src, r);
            if tally = Complete then
              let site, refusal = Option.get st.refusal in
              start_abort config st (Refused (site, refusal))
            else [])
    | Preparing, (Wire.Exec_ok _ | Wire.Exec_failed _) ->
        (* Duplicated command replies arriving after the last command was
           first answered: ignore. *)
        []
    | Committing, Wire.Commit_ack -> ack st src Committed
    | Committing, Wire.Rollback_ack when config.certifier.Config.adversary.Config.equivocate ->
        (* The forged-ROLLBACK half acknowledges the lie; the equivocator
           counts it like any other acknowledgement so the round
           quiesces. *)
        ack st src Committed
    | Committing, (Wire.Ready | Wire.Ready_certified _ | Wire.Refuse _ | Wire.Exec_ok _
      | Wire.Exec_failed _) ->
        (* Duplicated votes or command replies trailing the decision: ignore. *)
        []
    | Aborting reason, Wire.Rollback_ack -> ack st src (Aborted reason)
    | Aborting _, (Wire.Exec_ok _ | Wire.Exec_failed _ | Wire.Ready | Wire.Ready_certified _
      | Wire.Refuse _) ->
        (* Late replies racing the abort decision (e.g. an Exec_ok in
           flight when the exec timeout fired): ignore. *)
        []
    | Preparing, Wire.Rollback_ack when replicated config ->
        (* Under a replicated protocol an in-doubt participant's inquiry
           can prod a recovery ballot into presuming abort before our
           ballot-0 proposal ever starts; the participant rolls back and
           acknowledges a ROLLBACK we never sent.  The register has
           decided against us: adopt the abort (the broadcast collects
           this participant's acknowledgement again). *)
        adopt config st false
    | ( Replicating _,
        ( Wire.Ready | Wire.Ready_certified _ | Wire.Refuse _ | Wire.Exec_ok _ | Wire.Exec_failed _
        | Wire.Commit_ack | Wire.Rollback_ack ) ) ->
        (* Duplicated votes or replies trailing the proposal — and early
           decision acks from participants that already learned the
           outcome from a recovery ballot's DECISION-RESP; the decision
           broadcast (and its retransmission) will collect them again. *)
        []
    | _, payload ->
        Fmt.failwith "coordinator T%d: unexpected %a in current phase" st.gid Wire.pp_payload payload

let handle_from_acceptor config st idx payload =
  if st.finished then finished_step st ~src:(Wire.Acceptor { gid = st.gid; idx }) payload
  else
    match (st.phase, payload) with
    | Replicating { proposing = true }, Wire.Px_accepted { ballot = 0; idx = _ } ->
        if List.mem idx st.replica_acks then []
        else begin
          st.replica_acks <- idx :: st.replica_acks;
          if List.length st.replica_acks >= replica_quorum config then begin
            (* Write quorum reached: the register holds [commit]; announce. *)
            let cancels = if st.retransmit_armed then [ Cancel_timer Retransmit ] else [] in
            st.retransmit_armed <- false;
            cancels @ commit_point config st
          end
          else []
        end
    | Replicating _, Wire.Decision_resp { committed } -> adopt config st committed
    | _, (Wire.Px_accepted _ | Wire.Decision_resp _) ->
        (* Stale register traffic: acks for an already-reached quorum,
           extra recovery answers trailing an adopted decision. *)
        []
    | _, payload ->
        Fmt.failwith "coordinator T%d: unexpected %a from acceptor %d" st.gid Wire.pp_payload
          payload idx

let step config st input : effect list =
  match input with
  | Start ->
      let begins = send_to_all st (Wire.Begin { epoch = config.epoch }) in
      let effs = next_step config st in
      (force config (R_begin { participants = st.participants }) :: begins) @ effs
  | From_agent { src; payload } -> handle_from_agent config st src payload
  | From_acceptor { idx; payload } -> handle_from_acceptor config st idx payload
  | Exec_timeout_fired -> (
      st.exec_armed <- false;
      match (st.phase, st.outstanding) with
      | Executing, Some (site, _) ->
          start_abort config st (Exec_failed (site, "command reply timed out (site crash?)"))
      | _ -> [])
  | Retransmit_fired -> (
      match st.phase with
      | Committing | Aborting _ ->
          st.retransmissions <- st.retransmissions + 1;
          let resend =
            List.filter_map
              (fun (s, payload) ->
                if Site.Set.mem s st.acked then None
                else Some (send st ~dst:(Wire.Agent s) payload))
              (decision_sends config st)
          in
          Emit (Retransmitting_decision { unacked = n_participants st - Site.Set.cardinal st.acked })
          :: resend
          @ [ Arm_timer { timer = Retransmit; delay = decision_retry_interval } ]
      | Replicating { proposing } ->
          (* Re-drive the register: the ballot-0 proposal against
             acceptors that have not acked, or (when recovering) the
             outcome inquiry.  The inquiry probes ONE acceptor per fire,
             round-robin — prodding every undecided acceptor at once
             would start up to [n_acceptors] duelling recovery ballots;
             successive fires walk the replica set, so a live acceptor is
             reached within F+1 fires. *)
          st.retransmissions <- st.retransmissions + 1;
          let resend, unacked =
            if proposing then
              ( List.filter_map
                  (fun idx ->
                    if List.mem idx st.replica_acks then None
                    else
                      Some
                        (send st
                           ~dst:(Wire.Acceptor { gid = st.gid; idx })
                           (Wire.Px_accept { ballot = 0; committed = true })))
                  (List.init (n_acceptors config) Fun.id),
                n_acceptors config - List.length st.replica_acks )
            else
              ( [ send st
                    ~dst:(Wire.Acceptor { gid = st.gid; idx = st.retransmissions mod n_acceptors config })
                    Wire.Decision_req ],
                1 )
          in
          Emit (Retransmitting_proposal { unacked })
          :: resend
          @ [ Arm_timer { timer = Retransmit; delay = decision_retry_interval } ]
      | Executing | Preparing ->
          st.retransmit_armed <- false;
          [])
  | Prepare_retransmit_fired -> (
      match st.phase with
      | Preparing ->
          st.retransmissions <- st.retransmissions + 1;
          let sn = Option.get st.sn in
          let resend =
            List.filter_map
              (fun s ->
                if Site.Set.mem s st.voters then None
                else Some (send st ~dst:(Wire.Agent s) (Wire.Prepare sn)))
              st.participants
          in
          Emit (Retransmitting_prepare { silent = n_participants st - Site.Set.cardinal st.voters })
          :: resend
          @ [ Arm_timer { timer = Prepare_retransmit; delay = prepare_retry_interval } ]
      | Executing | Replicating _ | Committing | Aborting _ ->
          st.prepare_retransmit_armed <- false;
          [])
  | Gate_opened { sn; lossy } when st.phase = Executing && not st.finished ->
      (* The application's global Commit passed the gate: draw the serial
         number (the ticket baseline drew it at BEGIN) and start phase
         one of 2PC. The participant set is forced to the coordinator log
         before the first PREPARE leaves, so any participant that ever
         promises is discoverable at crash recovery. *)
      let sn = if config.certifier.Config.sn_at_begin then st.sn else sn in
      st.phase <- Preparing;
      st.sn <- sn;
      st.prepare_retransmit_armed <- lossy;
      force config (R_prepared { participants = st.participants; sn = Option.get sn })
      :: send_to_all st (Wire.Prepare (Option.get sn))
      @
      if lossy then [ Arm_timer { timer = Prepare_retransmit; delay = prepare_retry_interval } ]
      else []
  | Gate_opened _ ->
      (* A gate answer held across a coordinator crash: the recovered
         machine already carries a (presumed or logged) decision. *)
      []
  | Crash ->
      let cancels =
        (if st.exec_armed then [ Cancel_timer Exec_timeout ] else [])
        @ (if st.retransmit_armed then [ Cancel_timer Retransmit ] else [])
        @ if st.prepare_retransmit_armed then [ Cancel_timer Prepare_retransmit ] else []
      in
      st.exec_armed <- false;
      st.retransmit_armed <- false;
      st.prepare_retransmit_armed <- false;
      cancels
  | Recover { participants; sn; decision } -> (
      (* Fed to a fresh [init] after the site reboots. A logged decision
         is re-driven (broadcast + acknowledged retransmission); an entry
         with no decision record is presumed aborted — that abort decision
         is only now being made, so it is forced and recorded here. *)
      st.participants <- participants;
      st.sn <- sn;
      match decision with
      | Some true ->
          let effs = start_decision config st Committing in
          Emit (Recovered { decision }) :: effs
      | Some false ->
          let effs = start_decision config st (Aborting Presumed_abort) in
          Emit (Recovered { decision }) :: effs
      | None when replicated config && sn <> None ->
          (* Undecided past the prepare point under a replicated
             protocol: presuming abort would be unsound — a recovery
             ballot may already have chosen commit.  Ask the register and
             adopt whatever it answers; the inquiry itself prods
             undecided acceptors into running recovery.  (Before the
             prepare point no participant can hold a vote and the
             register can only ever choose abort, so plain presumed
             abort below stays correct.)  Like the participants' inquiry,
             the ask probes one acceptor at a time, round-robin via the
             retransmission counter. *)
          st.phase <- Replicating { proposing = false };
          st.retransmit_armed <- true;
          [
            Emit (Asking_register { acceptors = n_acceptors config });
            send st ~dst:(Wire.Acceptor { gid = st.gid; idx = 0 }) Wire.Decision_req;
            Arm_timer { timer = Retransmit; delay = decision_retry_interval };
          ]
      | None ->
          let effs = start_decision config st (Aborting Presumed_abort) in
          Emit (Recovered { decision })
          :: Force_log (R_decision { committed = false })
          :: Record (H_global_abort { gid = st.gid })
          :: effs)
