(* Bounded model checker for the effect-free protocol machines.

   The simulator (hermes.sim + hermes.core) runs *one* schedule per
   seed; this module runs *all* schedules of a small scenario. A global
   state is the product of every coordinator machine, every agent
   machine, and the world they act on. The world is the same values the
   simulator keeps, changed by the same functions: each site's
   {!Agent_log}, the {!Coordinator_log}, and one {!Local_txn} status per
   (site, gid) in place of an LTM, where a commit takes effect at once
   and its callback follows. Only the network (a message multiset —
   delivery in any order, optional drops and duplications under a
   budget), the pending LTM callbacks and the armed-timer sets are
   modelled here. An enabled action applies one machine step (or one
   fault) to copies of what it changes and yields a successor; a DFS
   with a visited set enumerates the reachable space exhaustively,
   within the fault budgets.

   Faults are budgeted rather than probabilistic: a budget of one drop
   explores *every* schedule in which any single message is lost. Time
   is logical — the clock only advances when a timer fires or a fault
   happens, so commuting deliveries reconverge to the same state and the
   visited set collapses the interleaving diamond.

   Violations are of two kinds:
   - machine exceptions: the machines [failwith] on protocol-impossible
     inputs (e.g. a COMMIT for an unknown, uncommitted subtransaction),
     so any schedule that provokes one is a counterexample;
   - invariant checks, tested on every transition or at terminal states:
     I1  no site both locally commits and rolls back a gid, no local
         commit (rollback) of a globally aborted (committed) gid, and no
         site begins an incarnation of a gid it has committed locally
         (at most one local commit per subtransaction);
     I2  a global commit is only decided once every participant sent
         READY — the all-READY rule, and the direct detector for the
         duplicate-READY fake-quorum bug under [Counted] quorum;
     I3  commit certification: a local commit is only released while no
         smaller-SN subtransaction is prepared at the site (Appendix C);
     I4  at terminal states, a decided gid is locally committed at every
         participant (commit) or at none (abort);
     I5  (termination, checked in coordinator-crash scenarios) at
         terminal states, no prepared-but-undecided log entry is left
         without any armed recovery mechanism — neither a decision/
         PREPARE retransmission at its coordinator nor a decision
         inquiry at the participant. A violation is a participant
         blocked forever on an in-doubt subtransaction;
     plus timer hygiene: an armed alive-check, commit-retry or inquiry
     timer always belongs to a live subtransaction (terminal transitions
     must cancel their timers).

   Coordinator crashes ([coord_crashes] budget) model the coordinating
   site losing its volatile 2PC state. With [termination] on (the
   default) the crash is atomic with recovery from the coordinator
   log — the begin/prepared/decision records force-written
   by the machine — re-driving a logged decision and presuming abort
   otherwise. With [termination] off the coordinator stays dead (the
   pre-durability behaviour): its timers die, deliveries to it are
   discarded, and I5 rediscovers the forever-blocking counterexample.

   With a replicated commit protocol ([commit_proto] other than 2PC) the
   decision register's acceptor machines join the global state, and the
   [replica_kills] budget enables *permanent* kills of a transaction's
   leader (its coordinator) or of individual acceptors — the Paxos
   Commit failure model, where non-blocking holds for up to F permanent
   failures. I5 is then the quorum-aware formulation: an in-doubt
   participant is blocked forever only when no reachable replica knows
   the decision AND no read/recovery quorum of live acceptors remains
   (or nothing is armed to ask them). Budgeting [replica_kills] at F
   must exhaust clean; at F+1 it must rediscover blocking — the
   checker's form of the Paxos Commit availability claim. Acceptor
   durability (crash + replay from the force-written acceptor log) is
   deliberately *not* modelled here — kills are permanent; log replay
   is covered by unit tests of the acceptor adapter.

   Scope note: replicated scenarios that also *fire* inquiry timers
   ([inquiries] > 0) do not exhaust at useful sizes — a recovery ballot
   in flight (~a dozen distinct messages) cross-interleaves with the
   ballot-0 proposal at every kill/fire placement, and the space runs
   past 10^7 states even at one transaction on one site. The CI gates
   therefore budget kills (and optionally retransmissions) with zero
   inquiry *fires*; the inquiry-driven recovery path itself is covered
   by the simulator's crash-train runs and by the unit and property
   tests of [Paxos_coordinator_sm]. *)

open Hermes_kernel
module A = Agent_sm
module C = Coordinator_sm
module P = Paxos_coordinator_sm

type budgets = {
  drops : int;  (* messages the network may lose *)
  dups : int;  (* messages the network may deliver twice *)
  crashes : int;  (* site crash+recover events *)
  uaborts : int;  (* unilateral aborts of live local transactions *)
  alive_fires : int;  (* periodic alive-check timer firings (they re-arm) *)
  commit_retries : int;  (* commit-certification retry firings *)
  exec_timeouts : int;  (* coordinator command-reply timeouts *)
  retransmits : int;  (* decision/PREPARE retransmission firings *)
  coord_crashes : int;  (* coordinator-site crash (+recovery) events *)
  inquiries : int;  (* decision-inquiry timer firings (they re-arm) *)
  replica_kills : int;
      (* permanent leader/acceptor kills (replicated protocols only) *)
  reconfigures : int;
      (* online shard moves: each installs a new placement epoch and
         (with [handover]) transfers the losing site's prepared
         certification state to the gainer *)
}

let no_faults =
  {
    drops = 0;
    dups = 0;
    crashes = 0;
    uaborts = 0;
    alive_fires = 0;
    commit_retries = 0;
    exec_timeouts = 0;
    retransmits = 0;
    coord_crashes = 0;
    inquiries = 0;
    replica_kills = 0;
    reconfigures = 0;
  }

type scenario = {
  n_sites : int;
  n_txns : int;  (* every transaction runs one command at every site *)
  config : Config.t;
  quorum : C.quorum;
  budgets : budgets;
  termination : bool;
      (* the coordinator durability + in-doubt termination protocol: off,
         a crashed coordinator stays dead and I5 finds the blocking *)
  handover : bool;
      (* shard moves transfer the loser's prepared certification state to
         the gainer before the new epoch serves traffic. Off, I6 finds
         the gainer certifying against an empty table (the ablation) *)
  txn_shards : int;
      (* shards per transaction: 0 (default) = all of them, the
         historical every-txn-touches-every-site shape. A proper subset
         (e.g. 2 of 3) leaves non-participant sites that can GAIN a
         moved shard — the only way the I6 handover obligation bites,
         since a native participant certifies through its own prepare *)
  max_states : int;  (* exploration cap; exceeding it sets [truncated] *)
}

let default =
  {
    n_sites = 2;
    n_txns = 2;
    config = { Config.full with Config.bind_data = false };
    quorum = C.Dedup;
    budgets = { no_faults with uaborts = 1; commit_retries = 2; alive_fires = 1 };
    termination = true;
    handover = true;
    txn_shards = 0;
    max_states = 2_000_000;
  }

(* ------------------------------------------------------------------ *)
(* The global state                                                     *)
(* ------------------------------------------------------------------ *)

(* An asynchronous LTM completion still in flight. A commit has already
   taken effect when its callback is queued: [committed] is what the LTM
   answered. *)
type cb =
  | Cb_exec of { site : int; gid : int; inc : int; purpose : A.purpose }
  | Cb_commit of { site : int; gid : int; inc : int; committed : bool }
  | Cb_uan of { site : int; gid : int; inc : int }

type tmr = T_agent of int * A.timer | T_coord of int * C.timer

type g = {
  clock : int;  (* logical; advances on timers and faults only *)
  sn_seq : int;
  coords : (int * C.state) list;  (* by gid *)
  clog : Coordinator_log.t;
      (* the coordinating sites' stable logs, one value for every round
         (rounds are keyed by gid); survives coordinator crashes *)
  cstaged : (int * (int * C.record * C.effect list) list) list;
      (* group commit: per coordinating site, the staged-but-unforced
         coordinator records (gid, record, withheld rest-of-step
         effects), oldest first — the model of the adapters' shared
         per-site batcher. Volatile: a coordinator crash drops its gid's
         entries *)
  dead : int list;  (* dead-for-good coordinators: [termination]-off crashes and leader kills *)
  accs : ((int * int) * P.state) list;
      (* decision-register acceptor machines, by (gid, idx); present only
         under a replicated commit protocol. The machine's promised/
         accepted/decided fields double as its force-written log (every
         change to them is forced in the same step) *)
  dead_accs : (int * int) list;  (* permanently killed acceptors *)
  agents : (int * A.state) list;  (* by site id *)
  logs : (int * Agent_log.t) list;  (* the stable Agent logs, by site id *)
  ltms : (int * (int * int Local_txn.t) list) list;
      (* by site id: each gid's latest local transaction at the site;
         the UAN goes to the subscribed incarnation *)
  msgs : Wire.t list;  (* the network: an unordered multiset *)
  cbs : cb list;
  timers : tmr list;
  unstarted : int list;
  outcomes : (int * Types.outcome) list;
  ready : (int * int) list;  (* (gid, site): READY was sent *)
  epoch : int;  (* the installed placement epoch, shared by every agent *)
  owner : (int * int) list;  (* shard -> owning site, under the current epoch *)
  tepoch : (int * int) list;  (* gid -> the epoch the transaction started under *)
  required : (int * int) list;
      (* (site, gid): handover obligations — gids prepared at a shard's
         losing site when it moved, which the gaining [site] must know
         about (I6) until the global decision lands *)
  b : budgets;  (* remaining budgets *)
}

type action =
  | Start of int
  | Deliver of Wire.t
  | Duplicate of Wire.t  (* deliver one copy, leave the original in flight *)
  | Drop of Wire.t
  | Ltm_complete of cb
  | Fire of tmr
  | Unilateral_abort of { site : int; gid : int }
  | Crash_recover of int
  | Coord_crash of int  (* by gid; recovery is atomic iff [termination] *)
  | Kill_leader of int  (* by gid: the leader dies for good (replicated protocols) *)
  | Kill_acceptor of int * int  (* (gid, idx): the acceptor dies for good *)
  | Reconfigure of { shard : int; to_ : int }
      (* online reconfiguration: move [shard] to site [to_], installing
         epoch + 1; with [scenario.handover] the loser's prepared
         certification state is adopted by the gainer first *)
  | Coord_flush of int
      (* by site: force the site's staged coordinator records (one batch
         I/O) and release their withheld effects; free, like the real
         batcher's window timer *)

exception Violation of string

let site_of = Site.of_int
let upd k v l = (k, v) :: List.remove_assoc k l
let assoc_or k l ~default = match List.assoc_opt k l with Some v -> v | None -> default

let remove_one x l =
  let rec go = function
    | [] -> []
    | y :: rest -> if y = x then rest else y :: go rest
  in
  go l

let log_of g s = List.assoc s g.logs
let txns_of g s = List.assoc s g.ltms
let find_txn g s gid = List.assoc_opt gid (txns_of g s)

(* An action that writes a site's Agent log or local transactions first
   takes copies of them, so the state it was applied to stays as it was
   (the DFS branches from it again), as the machines step on copies. *)
let own_site g s =
  {
    g with
    logs = upd s (Agent_log.copy (log_of g s)) g.logs;
    ltms = upd s (List.map (fun (gid, l) -> (gid, Local_txn.copy l)) (txns_of g s)) g.ltms;
  }

(* The [env] snapshot an adapter would sample for a site right now. *)
let env_of scenario g s =
  {
    (* Mirrors the adapter: the inquiry is armed whenever coordinator
       failures are on the table for the run — crash+recover or
       permanent kills — not only on lossy networks. *)
    A.inquiry =
      scenario.termination
      && (scenario.budgets.coord_crashes > 0 || scenario.budgets.replica_kills > 0);
    now = Time.of_int g.clock;
    views =
      (fun gid ->
        Option.map
          (fun (l : int Local_txn.t) ->
            { A.alive = Local_txn.is_alive l; last_op_done = l.Local_txn.last_op_done })
          (find_txn g s gid));
    max_committed_sn = Agent_log.max_committed_sn (log_of g s);
    epoch = g.epoch;
  }

let log_view_of g s gid = Agent_log.view (log_of g s) ~gid
let in_doubt g s = Agent_log.in_doubt (log_of g s)

(* ------------------------------------------------------------------ *)
(* Effect interpretation: every handler returns the next [g]            *)
(* ------------------------------------------------------------------ *)

(* I1, checked at the log writes where a local decision lands. *)
let check_local_decision g s (r : A.record) =
  let fail fmt = Fmt.kstr (fun m -> raise (Violation m)) ("I1: site %a " ^^ fmt) Site.pp (site_of s) in
  let facts gid = (Agent_log.find (log_of g s) ~gid, List.assoc_opt gid g.outcomes) in
  match r with
  | A.R_local_commit { gid } -> (
      match facts gid with
      | Some { Agent_log.rolled_back = true; _ }, _ -> fail "both rolled back and locally committed T%d" gid
      | Some _, Some (Types.Aborted _) -> fail "locally committed T%d, which globally aborted" gid
      | _ -> ())
  | A.R_rollback { gid } -> (
      match facts gid with
      | Some { Agent_log.locally_committed = true; _ }, _ ->
          fail "rolled back T%d after committing it locally" gid
      | Some _, Some Types.Committed -> fail "rolled back T%d, which globally committed" gid
      | _ -> ())
  | A.R_entry _ | A.R_command _ | A.R_incarnation _ | A.R_prepare _ | A.R_commit _ -> ()

let rec ltm_call scenario g s (c : A.call) =
  match c with
  | A.L_begin { gid; inc } ->
      (* I1, at most once: a subtransaction commits locally once per
         site, so no incarnation of a gid may begin where the gid has
         already committed. (A site crash empties the site's LTM table,
         as the adapter forgets its handles, so this sees the commits
         since the site's last crash.) *)
      (match find_txn g s gid with
      | Some { Local_txn.status = Local_txn.Committed; inc = committed; _ } ->
          raise
            (Violation
               (Fmt.str "I1: site %a begins incarnation %d of T%d after committing incarnation %d locally"
                  Site.pp (site_of s) inc gid committed))
      | Some _ | None -> ());
      let l = Local_txn.start ~inc ~now:(Time.of_int g.clock) in
      { g with ltms = upd s ((gid, l) :: List.remove_assoc gid (txns_of g s)) g.ltms }
  | A.L_exec { gid; inc; purpose; cmd = _ } ->
      (match find_txn g s gid with
      | Some l when Local_txn.current l ~inc -> ignore (Local_txn.exec l)
      | Some _ | None -> ());
      { g with cbs = Cb_exec { site = s; gid; inc; purpose } :: g.cbs }
  | A.L_commit { gid; inc } -> (
      (* I3: the machine may only release a local commit while it holds
         the smallest prepared serial number at the site (Appendix C).
         Under group commit the rule is the vectorized one the machine
         implements: a smaller-SN entry whose own decision is already
         staged ([committing] — its release sits earlier in the same
         batch) does not block, because commits apply in staging = SN
         order. *)
      (if scenario.config.Config.commit_certification then
         let ast = List.assoc s g.agents in
         match Alive_table.find ast.A.table ~gid with
         | Some e ->
             let released_in_order =
               Alive_table.min_sn_holds ast.A.table ~gid ~sn:e.Alive_table.sn
               || Config.group_commit scenario.config
                  && List.for_all
                       (fun (e' : Alive_table.entry) ->
                         e'.Alive_table.gid = gid
                         || Sn.(e'.Alive_table.sn > e.Alive_table.sn)
                         ||
                         match A.Int_map.find_opt e'.Alive_table.gid ast.A.subs with
                         | Some sub -> sub.A.committing
                         | None -> true)
                       (Alive_table.entries ast.A.table)
             in
             if not released_in_order then
               raise
                 (Violation
                    (Fmt.str
                       "I3: site %a releases the local commit of T%d with a smaller-SN prepared \
                        subtransaction present"
                       Site.pp (site_of s) gid));
             (* The completed-commit side of the same rule: releasing below
                a serial number the site has already finished committing is
                the §5.3 global-view distortion — the already-committed
                entry is gone from the alive table, so [min_sn_holds] above
                cannot see it. Reachable only with the certification
                extension off (which would have refused this PREPARE), e.g.
                under a stale-clock serial-number adversary. *)
             List.iter
               (fun (e' : Agent_log.entry) ->
                 match e'.Agent_log.sn with
                 | Some sn'
                   when e'.Agent_log.gid <> gid && e'.Agent_log.locally_committed
                        && Sn.(sn' > e.Alive_table.sn) ->
                     raise
                       (Violation
                          (Fmt.str
                             "I3: site %a releases the local commit of T%d below the \
                              already-committed bigger-SN T%d — commits released out of \
                              serial-number order"
                             Site.pp (site_of s) gid e'.Agent_log.gid))
                 | _ -> ())
               (Agent_log.entries (log_of g s))
         | None -> ());
      (* The commit takes effect now; its callback follows. A commit for
         an incarnation that is no longer the gid's current one is
         dropped, as the adapter drops it. *)
      match find_txn g s gid with
      | Some l when Local_txn.current l ~inc ->
          let committed =
            match Local_txn.commit l with
            | Local_txn.Applied | Local_txn.Already_committed -> true
            | Local_txn.Refused -> false
          in
          { g with cbs = Cb_commit { site = s; gid; inc; committed } :: g.cbs }
      | Some _ | None -> g)
  | A.L_abort { gid } ->
      Option.iter (fun l -> ignore (Local_txn.abort l)) (find_txn g s gid);
      g
  | A.L_abort_all_live ->
      List.iter (fun (_, l) -> ignore (Local_txn.abort l)) (txns_of g s);
      g
  | A.L_hold_open { gid } ->
      Option.iter (fun l -> Local_txn.hold_open l true) (find_txn g s gid);
      g
  | A.L_hold_open_batch { gids } ->
      List.fold_left (fun g gid -> ltm_call scenario g s (A.L_hold_open { gid })) g gids
  | A.L_commit_batch { txns } ->
      (* each released commit gets the per-gid I3 check of [L_commit] *)
      List.fold_left (fun g (gid, inc) -> ltm_call scenario g s (A.L_commit { gid; inc })) g txns
  | A.L_watch_uan { gid; inc } ->
      Option.iter (fun l -> Local_txn.watch l inc) (find_txn g s gid);
      g
  | A.L_bind _ | A.L_rebind _ | A.L_unbind _ -> g (* data binding is not modelled *)
  | A.L_forget _ -> g (* adapter bookkeeping only *)

let feed_agent scenario g s input =
  let old = List.assoc s g.agents in
  (* [step] updates the state it is given; [old] is still [g]'s, and the
     DFS branches from [g] again. *)
  let st = A.copy old in
  let effs =
    try A.step scenario.config st input with
    | Failure m -> raise (Violation m)
    | Invalid_argument m -> raise (Violation ("machine exception: " ^ m))
  in
  let g = { g with agents = upd s st g.agents } in
  (* A handover obligation on [s] was being met by native participation
     (the gid sat in [subs]); if this step abandoned the subtransaction
     without preparing it — wrong-epoch refusal, local abort — the site
     can never vote READY, the gid can never commit, and the obligation
     is moot. *)
  let abandoned gid =
    A.Int_map.mem gid old.A.subs
    && (not (A.Int_map.mem gid st.A.subs))
    && not (Alive_table.mem st.A.table ~gid)
  in
  let g =
    if g.required = [] then g
    else
      { g with required = List.filter (fun (s', gid) -> not (s' = s && abandoned gid)) g.required }
  in
  (* The LTM and the log raise [Invalid_argument] where the simulator
     would die: a command submitted to a committed transaction, a commit
     with a command in flight, a record for a gid the log never saw. *)
  try
    List.fold_left
      (fun g (eff : A.effect) ->
        match eff with
        | Types.Send { dst; gid; payload } ->
            (* [g.ready] records *genuine* READYs only: votes backed by a
               durable prepare record (forced earlier in this same effect
               list). A lying agent's READY has no prepare behind it, so
               it never registers and I2 exposes the fake quorum. *)
            let g =
              match payload with
              | (Wire.Ready | Wire.Ready_certified _)
                when (log_view_of g s gid).A.prepared && not (List.mem (gid, s) g.ready) ->
                  { g with ready = (gid, s) :: g.ready }
              | _ -> g
            in
            { g with msgs = { Wire.src = Wire.Agent (site_of s); dst; gid; payload } :: g.msgs }
        | Types.Arm_timer { timer; delay = _ } -> { g with timers = T_agent (s, timer) :: g.timers }
        | Types.Cancel_timer timer -> { g with timers = remove_one (T_agent (s, timer)) g.timers }
        | Types.Force_log r ->
            check_local_decision g s r;
            Agent_log.apply (log_of g s) r;
            g
        | Types.Force_batch rs ->
            (* one force I/O for the whole batch; every record still gets
               its own I1 check *)
            List.iter (check_local_decision g s) rs;
            Agent_log.apply_batch (log_of g s) rs;
            g
        | Types.Stage_log _ -> assert false (* the agent batches internally (Force_batch) *)
        | Types.Ltm_call c -> ltm_call scenario g s c
        | Types.Record _ | Types.Emit _ -> g
        | Types.Invoke_gate | Types.Decide _ -> assert false (* coordinator-only effects *))
      g effs
  with Invalid_argument m -> raise (Violation ("environment exception: " ^ m))

(* A coordinator-log write, forced ([Coordinator_log.apply]) or staged
   ([Coordinator_log.stage]), on a copy of the log. *)
let clog_write write g gid (r : C.record) =
  let undecided log =
    match Coordinator_log.find log ~gid with Some e -> e.Coordinator_log.decision = None | None -> true
  in
  let clog = Coordinator_log.copy g.clog in
  write clog ~gid r;
  if undecided g.clog && not (undecided clog) then
    (* The decision fixes the gid's fate: certification of new work no
       longer depends on the gainer holding its handed-over interval, so
       any outstanding handover obligation is discharged. *)
    { g with clog; required = List.filter (fun (_, gid') -> gid' <> gid) g.required }
  else { g with clog }

let rec feed_coord scenario g gid input =
  let st = List.assoc gid g.coords in
  (* The round is stamped with the epoch it STARTED under ([tepoch]), not
     the currently installed one — exactly what the real coordinator
     does: it resolved placement once, at submission. An agent holding a
     newer map answers WRONG-EPOCH. *)
  let cfg =
    {
      C.certifier = scenario.config;
      quorum = scenario.quorum;
      epoch = assoc_or gid g.tepoch ~default:0;
    }
  in
  (* as for the agents: the step runs on a copy, and [g]'s state stays *)
  let st = C.copy st in
  let effs =
    try C.step cfg st input with
    | Failure m -> raise (Violation m)
    | Invalid_argument m -> raise (Violation ("machine exception: " ^ m))
  in
  let g = { g with coords = upd gid st g.coords } in
  run_coord_effs scenario gid g effs

(* Walk a coordinator step's effects in order. A [Stage_log] parks the
   record and the *rest of the step* in the coordinating site's batch —
   the real adapter withholds them until the batcher forces — so a
   coordinator crash before the flush loses both, exactly like an
   unforced record should. *)
and run_coord_effs scenario gid g = function
  | [] -> g
  | (Types.Stage_log r : C.effect) :: rest ->
      let s = Site.to_int (List.assoc gid g.coords).C.site in
      let q = assoc_or s g.cstaged ~default:[] in
      { g with cstaged = upd s (q @ [ (gid, r, rest) ]) g.cstaged }
  | eff :: rest -> run_coord_effs scenario gid (coord_eff scenario gid g eff) rest

and coord_eff scenario gid g (eff : C.effect) =
  match eff with
  | Types.Send { dst; gid = mgid; payload } ->
      { g with msgs = { Wire.src = Wire.Coordinator gid; dst; gid = mgid; payload } :: g.msgs }
  | Types.Arm_timer { timer; delay = _ } -> { g with timers = T_coord (gid, timer) :: g.timers }
  | Types.Cancel_timer timer -> { g with timers = remove_one (T_coord (gid, timer)) g.timers }
  | Types.Force_log r -> clog_write Coordinator_log.apply g gid r
  | Types.Stage_log _ -> assert false (* consumed by [run_coord_effs] *)
  | Types.Force_batch _ -> assert false (* agent-only effect *)
  | Types.Ltm_call _ -> .
  | Types.Record _ | Types.Emit _ -> g
  | Types.Invoke_gate ->
      (* The default gate proceeds immediately; the serial number is
         drawn from the logical clock and a global sequence. A stale-
         clock adversary ([sn_drift] > 0) makes even-gid coordinators
         draw from [sn_drift] ticks in the past — logical time may go
         negative, which is exactly the point: the drawn serial number
         sorts below every honest one. *)
      let st = List.assoc gid g.coords in
      let drift = scenario.config.Config.adversary.Config.sn_drift in
      let ts = if drift > 0 && gid mod 2 = 0 then g.clock - drift else g.clock in
      let sn = Sn.make ~ts:(Time.of_int ts) ~site:st.C.site ~seq:g.sn_seq in
      let g = { g with sn_seq = g.sn_seq + 1 } in
      feed_coord scenario g gid
        (C.Gate_opened { sn = Some sn; lossy = scenario.budgets.retransmits > 0 })
  | Types.Decide outcome ->
      (* I2: a commit decision requires a READY from every participant. *)
      (match outcome with
      | Types.Committed ->
          let st = List.assoc gid g.coords in
          let missing =
            List.filter (fun s -> not (List.mem (gid, Site.to_int s) g.ready)) st.C.participants
          in
          if missing <> [] then
            raise
              (Violation
                 (Fmt.str "I2: T%d globally committed without READY from %a" gid
                    Fmt.(list ~sep:comma Site.pp)
                    missing))
      | Types.Aborted _ -> ());
      (* The decision discharges the gid's handover obligations, and the
         gaining sites release the foreign alive-table entries that were
         conservatively gating their certification (native entries are
         untouched: [drop_foreign] skips gids the agent still tracks). *)
      {
        g with
        outcomes = (gid, outcome) :: g.outcomes;
        required = List.filter (fun (_, gid') -> gid' <> gid) g.required;
        agents = List.map (fun (s, ast) -> (s, A.drop_foreign ast ~gid)) g.agents;
      }

(* One acceptor machine step. Acceptors only send, force and emit —
   their sends never feed another machine directly, so no recursion. The
   force-written records need no separate model: the machine's promised/
   accepted/decided fields change exactly when the log would, so the
   machine state *is* the log. *)
let feed_acceptor scenario g (gid, idx) input =
  let st = List.assoc (gid, idx) g.accs in
  let pcfg = P.config scenario.config in
  let st = P.copy st in
  let effs =
    try P.step pcfg st input with
    | Failure m -> raise (Violation m)
    | Invalid_argument m -> raise (Violation ("machine exception: " ^ m))
  in
  let g = { g with accs = upd (gid, idx) st g.accs } in
  List.fold_left
    (fun g (eff : P.effect) ->
      match eff with
      | Types.Send { dst; gid = mgid; payload } ->
          {
            g with
            msgs = { Wire.src = Wire.Acceptor { gid; idx }; dst; gid = mgid; payload } :: g.msgs;
          }
      | Types.Force_log _ | Types.Emit _ -> g
      | Types.Arm_timer _ | Types.Cancel_timer _ | Types.Ltm_call _ -> .
      | Types.Stage_log _ | Types.Force_batch _ | Types.Record _ | Types.Invoke_gate
      | Types.Decide _ ->
          assert false)
    g effs

(* ------------------------------------------------------------------ *)
(* Actions                                                              *)
(* ------------------------------------------------------------------ *)

let start_txn scenario g gid =
  (* Each transaction touches [txn_shards] consecutive shards starting
     at its own gid (0 = all of them); each shard resolves through the
     CURRENT owner map. At epoch 0 the map is the identity, so the
     default reproduces the historical one-command-per-site shape byte
     for byte; after a move two shards may resolve to one site (the
     coordinator's step numbering and [Program]-style duplicate
     participants handle that). *)
  let n_shards = scenario.n_sites in
  let shards =
    if scenario.txn_shards <= 0 || scenario.txn_shards >= n_shards then List.init n_shards Fun.id
    else List.init scenario.txn_shards (fun i -> (gid - 1 + i) mod n_shards)
  in
  let steps =
    List.map
      (fun shard ->
        ( site_of (assoc_or shard g.owner ~default:shard),
          Command.Assign { table = "t"; key = gid; value = shard } ))
      shards
  in
  let participants = List.sort_uniq Site.compare (List.map fst steps) in
  let site = site_of ((gid - 1) mod scenario.n_sites) in
  let sn, g =
    if scenario.config.Config.sn_at_begin then
      ( Some (Sn.make ~ts:(Time.of_int g.clock) ~site ~seq:g.sn_seq),
        { g with sn_seq = g.sn_seq + 1 } )
    else (None, g)
  in
  let st = C.init ~gid ~site ~participants ~steps ~sn in
  (* Under a replicated protocol the transaction's decision register
     comes up with it: 2F+1 acceptor machines (one for backup-TM). *)
  let accs =
    List.init (Config.n_acceptors scenario.config) (fun idx -> ((gid, idx), P.init ~gid ~idx))
  in
  let g =
    {
      g with
      coords = (gid, st) :: g.coords;
      accs = accs @ g.accs;
      unstarted = List.filter (fun x -> x <> gid) g.unstarted;
      tepoch = (gid, g.epoch) :: g.tepoch;
    }
  in
  feed_coord scenario g gid C.Start

let deliver scenario g (m : Wire.t) =
  match m.Wire.dst with
  | Wire.Coordinator gid when List.mem gid g.dead ->
      g (* the coordinating site is down for good: the delivery is lost *)
  | Wire.Coordinator gid -> (
      match m.Wire.src with
      | Wire.Agent s -> feed_coord scenario g gid (C.From_agent { src = s; payload = m.Wire.payload })
      | Wire.Acceptor { idx; _ } ->
          feed_coord scenario g gid (C.From_acceptor { idx; payload = m.Wire.payload })
      | Wire.Coordinator _ -> assert false)
  | Wire.Acceptor { gid; idx } when List.mem (gid, idx) g.dead_accs ->
      g (* the acceptor is dead for good: the delivery is lost *)
  | Wire.Acceptor { gid; idx } ->
      feed_acceptor scenario g (gid, idx)
        (P.Deliver { src = m.Wire.src; payload = m.Wire.payload })
  | Wire.Agent site ->
      let s = Site.to_int site in
      let g = own_site g s in
      feed_agent scenario g s
        (A.Deliver
           {
             env = env_of scenario g s;
             src = m.Wire.src;
             gid = m.Wire.gid;
             payload = m.Wire.payload;
             log = log_view_of g s m.Wire.gid;
           })

let run_cb scenario g (c : cb) =
  match c with
  | Cb_exec { site = s; gid; inc; purpose } ->
      let g = own_site g s in
      let result =
        match find_txn g s gid with
        | Some l when Local_txn.current l ~inc ->
            if Local_txn.is_active l then begin
              Local_txn.exec_done l ~now:(Time.of_int g.clock);
              A.Done (Command.Count 1)
            end
            else A.Failed "unilaterally aborted"
        | Some _ | None -> A.Failed "superseded incarnation"
      in
      feed_agent scenario g s (A.Exec_done { env = env_of scenario g s; gid; inc; purpose; result })
  | Cb_commit { site = s; gid; inc; committed } ->
      let g = own_site g s in
      feed_agent scenario g s (A.Commit_done { env = env_of scenario g s; gid; inc; committed })
  | Cb_uan { site = s; gid; inc } ->
      let g = own_site g s in
      feed_agent scenario g s (A.Uan { env = env_of scenario g s; gid; inc })

let charge (b : budgets) = function
  | T_agent (_, A.T_alive _) -> { b with alive_fires = b.alive_fires - 1 }
  | T_agent (_, A.T_commit_retry _) -> { b with commit_retries = b.commit_retries - 1 }
  | T_agent (_, A.T_inquiry _) -> { b with inquiries = b.inquiries - 1 }
  | T_agent (_, A.T_backoff _) -> b (* one-shot; bounded by the abort budgets *)
  | T_agent (_, A.T_flush) -> b (* free: staged records must always be able to flush *)
  | T_coord (_, C.Exec_timeout) -> { b with exec_timeouts = b.exec_timeouts - 1 }
  | T_coord (_, (C.Retransmit | C.Prepare_retransmit)) ->
      { b with retransmits = b.retransmits - 1 }

let fire scenario g t =
  (* Only the alive check advances the logical clock: it is the one
     timer whose effect observes the current time (the interval
     extension). Retries, backoffs and retransmissions fire "quickly" —
     a sound subset of the schedules, and far fewer distinct states. *)
  let clock = match t with T_agent (_, A.T_alive _) -> g.clock + 1 | _ -> g.clock in
  let g = { g with timers = remove_one t g.timers; clock; b = charge g.b t } in
  let g = match t with T_agent (s, _) -> own_site g s | T_coord _ -> g in
  match t with
  | T_agent (s, A.T_alive gid) -> feed_agent scenario g s (A.Alive_fired { env = env_of scenario g s; gid })
  | T_agent (s, A.T_commit_retry gid) ->
      feed_agent scenario g s (A.Retry_fired { env = env_of scenario g s; gid })
  | T_agent (s, A.T_inquiry gid) ->
      feed_agent scenario g s (A.Inquiry_fired { env = env_of scenario g s; gid })
  | T_agent (s, A.T_backoff { gid; inc }) ->
      feed_agent scenario g s (A.Backoff_fired { env = env_of scenario g s; gid; inc })
  | T_agent (s, A.T_flush) -> feed_agent scenario g s (A.Flush_fired { env = env_of scenario g s })
  | T_coord (gid, C.Exec_timeout) -> feed_coord scenario g gid C.Exec_timeout_fired
  | T_coord (gid, C.Retransmit) -> feed_coord scenario g gid C.Retransmit_fired
  | T_coord (gid, C.Prepare_retransmit) -> feed_coord scenario g gid C.Prepare_retransmit_fired

let unilateral_abort g s gid =
  let g = { g with clock = g.clock + 1; b = { g.b with uaborts = g.b.uaborts - 1 } } in
  let g = own_site g s in
  match find_txn g s gid with
  | Some l when Local_txn.abort l -> (
      (* The LTM notifies the subscribed incarnation, if any. *)
      match l.Local_txn.uan with
      | Some inc -> { g with cbs = Cb_uan { site = s; gid; inc } :: g.cbs }
      | None -> g)
  | Some _ | None -> g

let crash_recover scenario g s =
  let g = { g with clock = g.clock + 1; b = { g.b with crashes = g.b.crashes - 1 } } in
  let g = own_site g s in
  let live = List.length (List.filter (fun (_, l) -> Local_txn.is_active l) (txns_of g s)) in
  let g = feed_agent scenario g s (A.Crash { live }) in
  (* The crash also takes the site's table of local transactions (the
     live ones have just aborted; the adapter forgets every handle),
     the pending local completions and any leftover armed timers. *)
  let g =
    {
      g with
      ltms = upd s [] g.ltms;
      cbs =
        List.filter
          (function
            | Cb_exec { site; _ } | Cb_commit { site; _ } | Cb_uan { site; _ } -> site <> s)
          g.cbs;
      timers = List.filter (function T_agent (s', _) -> s' <> s | T_coord _ -> true) g.timers;
      (* Handed-over certification state is volatile at the gainer, so
         the crash wipes it with everything else. The native prepared
         entries reinstall from the site's own log below; the foreign
         gids' outcomes are driven to every participant by the decision
         machinery regardless, so the obligation is discharged by the
         crash rather than spuriously flagged by I6. *)
      required = List.filter (fun (s', _) -> s' <> s) g.required;
    }
  in
  feed_agent scenario g s (A.Recover { env = env_of scenario g s; entries = in_doubt g s })

(* Round [gid]'s coordinating site goes down: the round's armed timers
   die, and so do its staged-but-unforced records and the effects
   withheld behind them. *)
let lose_coordinator g gid =
  {
    g with
    clock = g.clock + 1;
    timers = List.filter (function T_coord (gid', _) -> gid' <> gid | T_agent _ -> true) g.timers;
    cstaged =
      List.map (fun (s, q) -> (s, List.filter (fun (gid', _, _) -> gid' <> gid) q)) g.cstaged;
  }

(* The coordinating site of [gid] crashes. With [termination] the
   reboot is atomic — a fresh machine replays the stable coordinator-log
   entry (re-driving a logged decision, presuming abort otherwise).
   Without it the coordinator is simply gone, the pre-durability
   behaviour. *)
let coord_crash scenario g gid =
  let g = lose_coordinator g gid in
  let g = { g with b = { g.b with coord_crashes = g.b.coord_crashes - 1 } } in
  if not scenario.termination then { g with dead = gid :: g.dead }
  else
    match Coordinator_log.recover g.clog ~gid with
    | None -> g (* nothing was ever promised anywhere *)
    | Some input ->
        let st = List.assoc gid g.coords in
        let fresh = C.init ~gid ~site:st.C.site ~participants:[] ~steps:[] ~sn:None in
        let g = { g with coords = upd gid fresh g.coords } in
        feed_coord scenario g gid input

(* A permanent leader kill: the coordinating site dies for good (the
   Paxos Commit failure model), like a [termination]-off coordinator
   crash, but charged to the [replica_kills] budget, because under a
   replicated protocol the register is meant to survive it. *)
let kill_leader g gid =
  let g = lose_coordinator g gid in
  { g with b = { g.b with replica_kills = g.b.replica_kills - 1 }; dead = gid :: g.dead }

(* A permanent acceptor kill: the machine keeps its state (irrelevant —
   it will never step again) and every future delivery to it is lost. *)
let kill_acceptor g gid idx =
  {
    g with
    clock = g.clock + 1;
    b = { g.b with replica_kills = g.b.replica_kills - 1 };
    dead_accs = (gid, idx) :: g.dead_accs;
  }

(* Online reconfiguration: install epoch + 1 with [shard] moved to
   [to_]. The loser's prepared-but-undecided gids become handover
   obligations of the gainer (the I6 proof obligation); with
   [scenario.handover] the gainer adopts the loser's alive-table entries
   (serial number + current interval) for exactly those gids BEFORE any
   new-epoch traffic can reach it — without it, the obligations go
   unmet and I6 reports the unsound window. In-flight messages stamped
   with the old epoch will bounce off the agents' WRONG-EPOCH check. *)
let reconfigure scenario g ~shard ~to_ =
  let g = { g with clock = g.clock + 1; b = { g.b with reconfigures = g.b.reconfigures - 1 } } in
  let loser = assoc_or shard g.owner ~default:shard in
  let g = { g with epoch = g.epoch + 1; owner = upd shard to_ g.owner } in
  let lst = List.assoc loser g.agents in
  (* Decided means the coordinator forced its decision record (the 2PC
     decision point) or the round already completed — both strictly
     before the participants may clean their table entries, so neither
     creates a handover obligation. *)
  let decided gid =
    List.mem_assoc gid g.outcomes
    ||
    match Coordinator_log.find g.clog ~gid with
    | Some e -> e.Coordinator_log.decision <> None
    | None -> false
  in
  let prepared_gids =
    Alive_table.entries lst.A.table
    |> List.map (fun (e : Alive_table.entry) -> e.Alive_table.gid)
    |> List.filter (fun gid -> not (decided gid))
    |> List.sort compare
  in
  let fresh =
    List.filter
      (fun ob -> not (List.mem ob g.required))
      (List.map (fun gid -> (to_, gid)) prepared_gids)
  in
  let g = { g with required = fresh @ g.required } in
  if scenario.handover then
    let entries = A.export_handover lst ~gids:prepared_gids in
    let gst = List.assoc to_ g.agents in
    { g with agents = upd to_ (A.adopt_handover gst entries) g.agents }
  else g

(* Force the site's staged coordinator records — one batch I/O, oldest
   first — then release the withheld effects in staging order. *)
let coord_flush scenario g s =
  let q = assoc_or s g.cstaged ~default:[] in
  let g = { g with cstaged = upd s [] g.cstaged } in
  let g = List.fold_left (fun g (gid, r, _) -> clog_write Coordinator_log.stage g gid r) g q in
  List.fold_left (fun g (gid, _, effs) -> run_coord_effs scenario gid g effs) g q

let apply scenario g = function
  | Start gid -> start_txn scenario g gid
  | Deliver m -> deliver scenario { g with msgs = remove_one m g.msgs } m
  | Duplicate m -> deliver scenario { g with b = { g.b with dups = g.b.dups - 1 } } m
  | Drop m -> { g with msgs = remove_one m g.msgs; b = { g.b with drops = g.b.drops - 1 } }
  | Ltm_complete c -> run_cb scenario { g with cbs = remove_one c g.cbs } c
  | Fire t -> fire scenario g t
  | Unilateral_abort { site; gid } -> unilateral_abort g site gid
  | Crash_recover s -> crash_recover scenario g s
  | Coord_crash gid -> coord_crash scenario g gid
  | Kill_leader gid -> kill_leader g gid
  | Kill_acceptor (gid, idx) -> kill_acceptor g gid idx
  | Reconfigure { shard; to_ } -> reconfigure scenario g ~shard ~to_
  | Coord_flush s -> coord_flush scenario g s

let enabled scenario g =
  let distinct l = List.sort_uniq compare l in
  let starts = List.map (fun gid -> Start gid) g.unstarted in
  let msgs = distinct g.msgs in
  let delivers = List.map (fun m -> Deliver m) msgs in
  let dups = if g.b.dups > 0 then List.map (fun m -> Duplicate m) msgs else [] in
  let drops = if g.b.drops > 0 then List.map (fun m -> Drop m) msgs else [] in
  let cbs = List.map (fun c -> Ltm_complete c) (distinct g.cbs) in
  let fires =
    List.filter_map
      (fun t ->
        let affordable =
          match t with
          | T_agent (_, A.T_alive _) -> g.b.alive_fires > 0
          | T_agent (_, A.T_commit_retry _) -> g.b.commit_retries > 0
          | T_agent (_, A.T_inquiry _) -> g.b.inquiries > 0
          | T_agent (_, A.T_backoff _) -> true
          | T_agent (_, A.T_flush) -> true
          | T_coord (_, C.Exec_timeout) -> g.b.exec_timeouts > 0
          | T_coord (_, (C.Retransmit | C.Prepare_retransmit)) -> g.b.retransmits > 0
        in
        if affordable then Some (Fire t) else None)
      (distinct g.timers)
  in
  let uaborts =
    if g.b.uaborts > 0 then
      List.concat_map
        (fun (s, txns) ->
          List.filter_map
            (fun (gid, l) ->
              if Local_txn.is_active l then Some (Unilateral_abort { site = s; gid }) else None)
            txns)
        g.ltms
    else []
  in
  let crashes =
    if g.b.crashes > 0 then List.map (fun (s, _) -> Crash_recover s) g.agents else []
  in
  let coord_crashes =
    (* crashing a finished (all-acked) or already-dead coordinator only
       pads the space: nothing observable changes *)
    if g.b.coord_crashes > 0 then
      List.filter_map
        (fun (gid, (st : C.state)) ->
          if st.C.finished || List.mem gid g.dead then None else Some (Coord_crash gid))
        g.coords
    else []
  in
  let kills =
    (* permanent kills, replicated protocols only: the leader or any
       live acceptor of an unfinished round may die for good *)
    let n_acc = Config.n_acceptors scenario.config in
    if g.b.replica_kills > 0 && n_acc > 0 then
      List.concat_map
        (fun (gid, (st : C.state)) ->
          if st.C.finished || List.mem gid g.dead then []
          else
            Kill_leader gid
            :: List.filter_map
                 (fun idx ->
                   if List.mem (gid, idx) g.dead_accs then None else Some (Kill_acceptor (gid, idx)))
                 (List.init n_acc Fun.id))
        g.coords
    else []
  in
  let reconfigs =
    (* every (shard, non-owner site) pair is a distinct move — offered
       only while some transaction can still observe the new epoch
       (moves after full quiescence only bump a number nothing reads) *)
    if g.b.reconfigures > 0 && List.length g.outcomes < scenario.n_txns then
      List.concat_map
        (fun (shard, owner_site) ->
          List.filter_map
            (fun to_ -> if to_ <> owner_site then Some (Reconfigure { shard; to_ }) else None)
            (List.init scenario.n_sites Fun.id))
        g.owner
    else []
  in
  let cflushes =
    (* free, like the agent flush timer: a non-empty batch can always
       force, so staged work never blocks quiescence *)
    List.filter_map (fun (s, q) -> if q <> [] then Some (Coord_flush s) else None) g.cstaged
  in
  starts @ delivers @ dups @ drops @ cbs @ fires @ uaborts @ crashes @ coord_crashes @ kills
  @ reconfigs @ cflushes

(* ------------------------------------------------------------------ *)
(* Invariants checked outside the transition function                   *)
(* ------------------------------------------------------------------ *)

(* Timer hygiene: every armed alive-check / commit-retry timer belongs
   to a subtransaction the agent still tracks. *)
let hygiene_violation g =
  List.find_map
    (function
      | T_agent (s, (A.T_alive gid | A.T_commit_retry gid | A.T_inquiry gid)) ->
          let ast = List.assoc s g.agents in
          if A.Int_map.mem gid ast.A.subs then None
          else
            Some
              (Fmt.str "timer hygiene: site %a holds an armed timer for the finished T%d" Site.pp
                 (site_of s) gid)
      | T_agent (s, A.T_flush) ->
          (* the flush timer is armed iff work is staged for it *)
          let ast = List.assoc s g.agents in
          if A.flush_pending ast then None
          else
            Some
              (Fmt.str "timer hygiene: site %a holds an armed flush timer with nothing staged"
                 Site.pp (site_of s))
      | T_agent (_, A.T_backoff _) | T_coord _ -> None)
    g.timers

(* Group commit, at terminal states: a quiesced agent must hold no
   staged-but-unforced records and no buffered PREPAREs — staged work
   with no armed flush timer left would be withheld forever. (The
   coordinator batcher cannot violate this: a non-empty [cstaged] queue
   keeps a [Coord_flush] action enabled, so the state is not terminal.) *)
let flush_violations g =
  List.filter_map
    (fun (s, (ast : A.state)) ->
      if A.flush_pending ast then
        Some
          (Fmt.str "group commit: site %a is quiescent with staged-but-unforced records" Site.pp
             (site_of s))
      else None)
    g.agents

(* I5, at terminal states of coordinator-failure scenarios: the
   termination property. A prepared-but-undecided agent-log entry is a
   participant still in doubt; it is *blocked forever* when no armed
   mechanism can still resolve it. (An armed timer whose budget ran out
   is exempt: real time would fire it, the exploration merely stopped
   counting.) Gated on the budgets so pre-existing scenarios keep their
   exact semantics.

   Plain 2PC: resolvable iff a decision/PREPARE retransmission is armed
   at the coordinator or an inquiry is armed at the participant.

   Replicated protocols (the quorum-aware formulation): let "askable"
   mean some armed mechanism can still interrogate the register — an
   inquiry at the participant, or the live leader's retransmission
   (which either re-drives a known decision or re-asks its acceptors).
   The entry is resolvable iff
   - the leader is alive pre-prepare-point with PREPARE retransmission
     armed (an abort needs no register), or
   - some reachable replica already knows the decision (the live leader
     past its decision, or a live acceptor with a decided register) and
     askable, or
   - no one knows it yet but a recovery quorum of acceptors is still
     alive and askable — a recovery ballot can finish the round.
   At F kills the last disjunct always holds (2F+1 - F >= F+1), so the
   space exhausts clean; at F+1 it fails and I5 finds the blocking. *)
let in_doubt_violations scenario g =
  if scenario.budgets.coord_crashes = 0 && scenario.budgets.replica_kills = 0 then []
  else
    let n_acc = Config.n_acceptors scenario.config in
    let quorum = Config.replica_quorum scenario.config in
    let timer_armed f = List.exists f g.timers in
    let resolvable s gid =
      let inquiry_armed =
        timer_armed (function T_agent (s', A.T_inquiry g') -> s' = s && g' = gid | _ -> false)
      in
      if n_acc = 0 then
        inquiry_armed
        || timer_armed (function
             | T_coord (g', (C.Retransmit | C.Prepare_retransmit)) -> g' = gid
             | _ -> false)
      else
        let leader_alive = not (List.mem gid g.dead) in
        let lst = List.assoc gid g.coords in
        let leader_decided =
          leader_alive
          && match lst.C.phase with C.Committing | C.Aborting _ -> true | _ -> false
        in
        let leader_retx =
          leader_alive
          && timer_armed (function T_coord (g', C.Retransmit) -> g' = gid | _ -> false)
        in
        let leader_pretx =
          leader_alive
          && timer_armed (function T_coord (g', C.Prepare_retransmit) -> g' = gid | _ -> false)
        in
        let askable = inquiry_armed || leader_retx in
        let alive_accs =
          List.filter
            (fun idx -> not (List.mem (gid, idx) g.dead_accs))
            (List.init n_acc Fun.id)
        in
        let decided_exists =
          leader_decided
          || List.exists
               (fun idx -> (List.assoc (gid, idx) g.accs).P.decided <> None)
               alive_accs
        in
        leader_pretx
        || (decided_exists && askable)
        || (List.length alive_accs >= quorum && askable)
    in
    let decision_known s gid =
      (* A prepared entry whose agent sub already holds the decision
         ([decision_commit], possibly [committing]) is not in doubt —
         only the rigorous release order is delaying the local commit,
         and the armed commit-retry timer drives that in real time. *)
      match List.assoc_opt s g.agents with
      | Some ast -> (
          match A.Int_map.find_opt gid ast.A.subs with
          | Some sub -> sub.A.decision_commit || sub.A.committing
          | None -> false)
      | None -> false
    in
    List.concat_map
      (fun (s, log) ->
        List.filter_map
          (fun (e : A.recover_entry) ->
            let gid = e.A.r_gid in
            if (not (decision_known s gid)) && not (resolvable s gid) then
              Some
                (Fmt.str
                   "I5: T%d is in doubt at site %a at quiescence with no retransmission or inquiry \
                    armed that can still reach a decision — blocked forever"
                   gid Site.pp (site_of s))
            else None)
          (Agent_log.in_doubt log))
      g.logs

(* I6, on every transition: after a shard move, the gaining site must
   hold the handed-over certification state (serial number + alive
   interval) of every still-undecided gid that was prepared at the
   losing site — otherwise the gainer certifies new PREPAREs against an
   incomplete table and can admit an order the loser already ruled out.
   (I6(a) — one owner per shard per epoch — holds by construction of the
   [owner] map; this is I6(b), the handover obligation.) *)
let i6_violation g =
  List.find_map
    (fun (s, gid) ->
      match List.assoc_opt s g.agents with
      (* satisfied by the handed-over entry, or by native participation:
         a gainer that runs the gid's subtransaction itself certifies it
         through its own prepare path *)
      | Some ast when Alive_table.mem ast.A.table ~gid || A.Int_map.mem gid ast.A.subs -> None
      | Some _ | None ->
          Some
            (Fmt.str
               "I6: site %a gained a shard but holds no certification state for the prepared, \
                undecided T%d — the handover was skipped, so new PREPAREs certify against an \
                incomplete alive table"
               Site.pp (site_of s) gid))
    g.required

(* I4, at terminal states only (in-flight schedules may be half-done).
   Only the gid's participants are obliged to hold log entries — with
   [txn_shards] set, a transaction touches a proper subset of sites.
   An undelivered commit is exempt while an armed mechanism can still
   drive it home — an inquiry timer at the participant or a decision
   retransmission at the coordinator whose *budget* ran out: real time
   would fire it, the exploration merely stopped counting (the same
   exemption I5 makes). A participant with NOTHING armed stays a
   violation — that is the lying agent's silently-dropped local commit. *)
let terminal_violations g =
  List.concat_map
    (fun (gid, outcome) ->
      let participants =
        match List.assoc_opt gid g.coords with
        | Some (st : C.state) -> st.C.participants
        | None -> []
      in
      let still_driven s =
        List.exists
          (function
            | T_agent (s', A.T_inquiry g') -> s' = s && g' = gid
            | T_coord (g', C.Retransmit) -> g' = gid
            | _ -> false)
          g.timers
      in
      List.filter_map
        (fun (s, log) ->
          if not (List.mem (site_of s) participants) then None
          else
          match (outcome, Agent_log.find log ~gid) with
          | Types.Committed, Some e when (not e.Agent_log.locally_committed) && not (still_driven s) ->
              Some
                (Fmt.str "I4: T%d decided commit but site %a never committed locally" gid Site.pp
                   (site_of s))
          | Types.Committed, None ->
              Some (Fmt.str "I4: T%d decided commit but site %a has no log entry" gid Site.pp (site_of s))
          | Types.Aborted _, Some e when e.Agent_log.locally_committed ->
              Some
                (Fmt.str "I4: T%d decided abort but site %a committed locally" gid Site.pp (site_of s))
          | _ -> None)
        g.logs)
    g.outcomes

(* ------------------------------------------------------------------ *)
(* State fingerprinting and the DFS                                     *)
(* ------------------------------------------------------------------ *)

(* The canonical projections of one machine's state, keyed by its gid
   or site: maps and sets become sorted lists. Two states with equal
   projections are the same state to the explorer. *)
let canon_coord (gid, (st : C.state)) =
  ( gid,
    st.C.phase,
    st.C.remaining_steps,
    st.C.outstanding,
    st.C.sn,
    Site.Set.elements st.C.voters,
    st.C.votes,
    st.C.refusal,
    Site.Set.elements st.C.acked,
    List.sort compare st.C.replica_acks,
    st.C.retransmissions,
    (st.C.exec_armed, st.C.retransmit_armed, st.C.prepare_retransmit_armed, st.C.finished) )

let canon_agent (s, (st : A.state)) =
  ( s,
    A.Int_map.bindings st.A.subs,
    List.sort compare
      (List.map
         (fun (e : Alive_table.entry) -> (e.Alive_table.gid, e.Alive_table.sn, e.Alive_table.interval))
         (Alive_table.entries st.A.table)),
    (st.A.pending, st.A.batch, st.A.flush_armed) )

(* A canonical projection, marshalled without sharing so that equal
   states hash equally however their values came to be allocated: maps
   and sets become sorted lists, multisets are sorted, assoc lists are
   keyed in order, and each log lists its entries in gid order (an
   [Int_tbl]'s bucket layout depends on its insertion history). The
   logs' force counters are accounting, not state, and are left out. *)
let fingerprint g =
  let sorted_assoc l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  let canon =
    ( (g.clock, g.sn_seq),
      List.map canon_coord (sorted_assoc g.coords),
      (Coordinator_log.entries g.clog, List.sort compare g.dead, sorted_assoc g.cstaged),
      (sorted_assoc g.accs, List.sort compare g.dead_accs),
      List.map canon_agent (sorted_assoc g.agents),
      List.map
        (fun (s, log) -> (s, Agent_log.max_committed_sn log, Agent_log.entries log))
        (sorted_assoc g.logs),
      List.map (fun (s, txns) -> (s, sorted_assoc txns)) (sorted_assoc g.ltms),
      (List.sort compare g.msgs, List.sort compare g.cbs, List.sort compare g.timers),
      (g.unstarted, List.sort compare g.outcomes, List.sort compare g.ready, g.b),
      (g.epoch, sorted_assoc g.owner, sorted_assoc g.tepoch, List.sort compare g.required) )
  in
  Digest.string (Marshal.to_string canon [ Marshal.No_sharing ])

let init scenario =
  let sites = List.init scenario.n_sites Fun.id in
  let gids = List.init scenario.n_txns (fun i -> i + 1) in
  let g0 =
    {
      clock = 0;
      sn_seq = 0;
      coords = [];
      clog = Coordinator_log.create ();
      cstaged = [];
      dead = [];
      accs = [];
      dead_accs = [];
      agents = List.map (fun s -> (s, A.init ~site:(site_of s))) sites;
      logs = List.map (fun s -> (s, Agent_log.create ())) sites;
      ltms = List.map (fun s -> (s, [])) sites;
      msgs = [];
      cbs = [];
      timers = [];
      unstarted = gids;
      outcomes = [];
      ready = [];
      epoch = 0;
      owner = List.map (fun s -> (s, s)) sites;  (* the static identity map *)
      tepoch = [];
      required = [];
      b = scenario.budgets;
    }
  in
  (* Start every coordinator up front: delaying a start is subsumed by
     delaying the delivery of its messages, so exploring start
     interleavings only pads the space. The exception is the ticket
     baseline ([sn_at_begin]), where the begin order assigns the serial
     numbers — there the starts stay explorable actions. *)
  if scenario.config.Config.sn_at_begin then g0
  else List.fold_left (fun g gid -> start_txn scenario g gid) g0 gids

type stats = {
  states : int;
  transitions : int;
  deduped : int;  (* transitions that reconverged to a visited state *)
  terminals : int;
  n_violations : int;
  violations : (string * action list) list;  (* first few, trail oldest-first *)
  truncated : bool;  (* [max_states] hit: the space was NOT exhausted *)
}

let pp_action ppf = function
  | Start gid -> Fmt.pf ppf "start T%d" gid
  | Deliver m -> Fmt.pf ppf "deliver %a" Wire.pp m
  | Duplicate m -> Fmt.pf ppf "deliver a duplicate of %a" Wire.pp m
  | Drop m -> Fmt.pf ppf "drop %a" Wire.pp m
  | Ltm_complete (Cb_exec { site; gid; inc; _ }) ->
      Fmt.pf ppf "LTM at %a finishes a command of T%d (inc %d)" Site.pp (site_of site) gid inc
  | Ltm_complete (Cb_commit { site; gid; inc; committed }) ->
      Fmt.pf ppf "LTM at %a reports the local commit of T%d (inc %d) %s" Site.pp (site_of site) gid
        inc (if committed then "done" else "refused")
  | Ltm_complete (Cb_uan { site; gid; inc }) ->
      Fmt.pf ppf "UAN for T%d (inc %d) reaches the agent at %a" gid inc Site.pp (site_of site)
  | Fire (T_agent (s, A.T_alive gid)) ->
      Fmt.pf ppf "alive-check timer fires for T%d at %a" gid Site.pp (site_of s)
  | Fire (T_agent (s, A.T_commit_retry gid)) ->
      Fmt.pf ppf "commit-retry timer fires for T%d at %a" gid Site.pp (site_of s)
  | Fire (T_agent (s, A.T_inquiry gid)) ->
      Fmt.pf ppf "decision-inquiry timer fires for T%d at %a" gid Site.pp (site_of s)
  | Fire (T_agent (s, A.T_backoff { gid; inc })) ->
      Fmt.pf ppf "resubmission backoff fires for T%d (inc %d) at %a" gid inc Site.pp (site_of s)
  | Fire (T_agent (s, A.T_flush)) ->
      Fmt.pf ppf "group-commit flush timer fires at %a" Site.pp (site_of s)
  | Fire (T_coord (gid, C.Exec_timeout)) -> Fmt.pf ppf "T%d's command reply times out" gid
  | Fire (T_coord (gid, C.Retransmit)) -> Fmt.pf ppf "T%d retransmits its decision" gid
  | Fire (T_coord (gid, C.Prepare_retransmit)) -> Fmt.pf ppf "T%d retransmits PREPARE" gid
  | Unilateral_abort { site; gid } ->
      Fmt.pf ppf "LTM at %a unilaterally aborts T%d" Site.pp (site_of site) gid
  | Crash_recover s -> Fmt.pf ppf "site %a crashes and recovers" Site.pp (site_of s)
  | Coord_crash gid -> Fmt.pf ppf "T%d's coordinating site crashes" gid
  | Kill_leader gid -> Fmt.pf ppf "T%d's leader dies for good" gid
  | Kill_acceptor (gid, idx) -> Fmt.pf ppf "acceptor %d of T%d's register dies for good" idx gid
  | Reconfigure { shard; to_ } ->
      Fmt.pf ppf "shard %d moves to site %a (new placement epoch)" shard Site.pp (site_of to_)
  | Coord_flush s -> Fmt.pf ppf "the coordinator batch at %a force-writes" Site.pp (site_of s)

let max_reported = 5

let run scenario =
  let visited = Hashtbl.create (1 lsl 16) in
  let states = ref 0
  and transitions = ref 0
  and deduped = ref 0
  and terminals = ref 0
  and n_violations = ref 0
  and violations = ref []
  and truncated = ref false in
  let record msg trail =
    incr n_violations;
    if List.length !violations < max_reported then violations := (msg, List.rev trail) :: !violations
  in
  let rec go g trail =
    if !states >= scenario.max_states then truncated := true
    else begin
      incr states;
      match enabled scenario g with
      | [] ->
          incr terminals;
          List.iter (fun m -> record m trail)
            (terminal_violations g @ flush_violations g @ in_doubt_violations scenario g)
      | acts ->
          List.iter
            (fun a ->
              incr transitions;
              match apply scenario g a with
              | exception Violation m -> record m (a :: trail)
              | g' -> (
                  match
                    (match hygiene_violation g' with None -> i6_violation g' | some -> some)
                  with
                  | Some m -> record m (a :: trail)
                  | None ->
                      let fp = fingerprint g' in
                      if Hashtbl.mem visited fp then incr deduped
                      else begin
                        Hashtbl.add visited fp ();
                        go g' (a :: trail)
                      end))
            acts
    end
  in
  let g0 = init scenario in
  Hashtbl.add visited (fingerprint g0) ();
  go g0 [];
  {
    states = !states;
    transitions = !transitions;
    deduped = !deduped;
    terminals = !terminals;
    n_violations = !n_violations;
    violations = List.rev !violations;
    truncated = !truncated;
  }

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                      *)
(* ------------------------------------------------------------------ *)

let pp_stats ppf st =
  Fmt.pf ppf "%d states, %d transitions (%d reconverged), %d terminal states, %d violation(s)%s"
    st.states st.transitions st.deduped st.terminals st.n_violations
    (if st.truncated then " [TRUNCATED: state cap hit]" else "")

let pp_violation ppf (msg, trail) =
  Fmt.pf ppf "@[<v2>%s@,@[<v2>schedule:@,%a@]@]" msg (Fmt.list ~sep:Fmt.cut pp_action) trail
