(* The 2PC Agent (2PCA) with the Certifier algorithms, as an effect-free
   state machine — the paper's core contribution (§2, §4, §5 and the Appendix)
   with every side effect factored out into the returned effect list.
   See [Agent] in hermes.core for the effectful adapter.

   The machine plays the 2PC Participant towards the Coordinators and
   *simulates the prepared state* on behalf of an LTM that has none: on
   READY it keeps the local subtransaction open (all locks held,
   uncommitted), and if the LTM unilaterally aborts it, a new local
   subtransaction replays the logged commands (subtransaction
   resubmission).

   The Certifier steps, exactly as in the Appendix:

   A. Alive check — periodically, and on UAN, verify the prepared
      subtransaction is still alive; extend its alive interval on
      success, resubmit on failure.
   B. Extended prepare certification — on PREPARE: first refuse if an
      "older" (bigger-SN) subtransaction has already committed here
      (§5.3); then the basic certification: the candidate's alive
      interval must intersect the interval of every prepared
      subtransaction (§4.2); then a final alive check.
   C. Commit certification — on COMMIT: commit locally only if no
      prepared subtransaction at this site has a smaller serial number;
      otherwise retry after a timeout.

   Effect contract: [step] performs no effect — everything external
   arrives in the input ([env], log views, recovery entries) and
   everything outbound leaves as an ordered effect list. Effect order is
   the old imperative call order, which is what keeps adapter-driven
   runs byte-identical (engine event sequence numbers, RNG draw order,
   trace append order). [env.views] is a lookup into the adapter's live
   LTM handles, valid only for the duration of the step: the machine
   reads it before any of its LTM-mutating effects is interpreted, so it
   sees exactly what a snapshot taken when the input was built would
   show.

   Ownership: [step] owns its whole input state and updates it where it
   lies — each subtransaction record, the map of them (changed only when
   a subtransaction arrives or leaves), the alive table and the
   group-commit buffers — and returns only the effects. A caller that
   branches from a state (the model checker's DFS) steps on [copy st]
   instead. The coordinator machines follow the same rule.

   Volatility: the machine state is exactly the agent's *volatile* state
   — a crash input empties it. The stable Agent log lives outside
   ({!Agent_log}, owned by the site); the machine reads it through
   [log_view] / [recover_entry] snapshots and writes it through
   [Force_log] effects, mirroring just enough (the command list) to
   dedup EXECs and replay commands without a query effect. *)

open Hermes_kernel
open Types
module Int_map = Map.Make (Int)

(* Ticks between periodic alive checks (Appendix A). *)
let alive_check_interval = 5_000

(* Ticks before retrying a blocked commit certification (Appendix C). *)
let commit_retry_interval = 2_000

type sub_state = Active | Prepared

(* One global subtransaction at this site (volatile image), updated in
   place by [step]. *)
type sub = {
  gid : int;
  coordinator : Wire.address;
  mutable inc : int;  (* current incarnation index *)
  mutable commands_rev : Command.t list;  (* newest first; mirrors the stable log *)
  mutable state : sub_state;
  mutable sn : Sn.t option;
  mutable resubmitting : bool;
  mutable to_feed : Command.t list;  (* commands still to replay in this resubmission *)
  mutable committing : bool;  (* local commit in flight (makes duplicate COMMITs harmless) *)
  mutable decision_commit : bool;  (* COMMIT received, not yet performed *)
  mutable decision_at : Time.t option;  (* when the first COMMIT arrived *)
  mutable prepared_at : Time.t option;  (* when READY was sent (the in-doubt window opens) *)
  mutable sn_retries : int;  (* commit-certification retries *)
  mutable inquiries : int;  (* DECISION-REQs sent for this subtransaction *)
  mutable alive_armed : bool;
  mutable retry_armed : bool;
  mutable inquiry_armed : bool;  (* termination-protocol inquiry timer *)
}

(* Read-only view of one LTM transaction, looked up by the machine while
   it steps (safe: the machine reads these before any LTM-mutating effect
   of the transition is performed). *)
type view = { alive : bool; last_op_done : Time.t }

type env = {
  now : Time.t;
  views : int -> view option;
      (* by gid; a gid without a view is a just-begun (alive) txn. Read
         during the step only *)
  max_committed_sn : Sn.t option;  (* the stable log's biggest committed SN *)
  epoch : int;
      (* the agent's installed placement epoch; a BEGIN/EXEC stamped with
         an older epoch is refused WRONG-EPOCH (the client re-resolves
         through the new map and resubmits — the paper's resubmission
         machinery). 0 everywhere until a reconfiguration happens. *)
  inquiry : bool;
      (* whether the termination protocol is engaged: the adapter samples
         this as "coordinator crashes enabled for this run", so runs
         without coordinator crashes arm no inquiry timers and stay
         byte-identical.  (It is deliberately NOT gated on network
         lossiness: a coordinator crash loses in-flight decisions even
         when no message is ever dropped.) *)
}

(* What the stable log knows about a gid (for messages about
   subtransactions the volatile state has lost). *)
type log_view = {
  known : bool;
  prepared : bool;
  committed : bool;  (* commit record forced *)
  locally_committed : bool;
  rolled_back : bool;
  sn : Sn.t option;  (* the force-written prepare record's serial number,
                        for re-voting with a certificate after a crash *)
}

(* One in-doubt stable-log entry handed to [Recover]. *)
type recover_entry = {
  r_gid : int;
  r_coordinator : Wire.address;
  r_inc : int;  (* last logged incarnation *)
  r_sn : Sn.t option;
  r_commands : Command.t list;  (* oldest first *)
  r_committed : bool;  (* decision known: commit *)
}

type purpose = Reply of int (* step index to answer *) | Feed  (* resubmission replay *)
type exec_result = Done of Command.result | Failed of string

type input =
  | Deliver of { env : env; src : Wire.address; gid : int; payload : Wire.payload; log : log_view }
  | Alive_fired of { env : env; gid : int }
  | Retry_fired of { env : env; gid : int }
  | Backoff_fired of { env : env; gid : int; inc : int }
  | Uan of { env : env; gid : int; inc : int }  (* unilateral-abort notification *)
  | Exec_done of { env : env; gid : int; inc : int; purpose : purpose; result : exec_result }
  | Commit_done of { env : env; gid : int; inc : int; committed : bool }
  | Inquiry_fired of { env : env; gid : int }
  | Flush_fired of { env : env }
      (* group commit: the batch window elapsed — vector-certify the
         buffered PREPAREs and force the staged records with one I/O *)
  | Crash of { live : int }  (* live LTM transactions, for the crash event *)
  | Recover of { env : env; entries : recover_entry list }

type timer =
  | T_alive of int
  | T_commit_retry of int
  | T_backoff of { gid : int; inc : int }
      (* armed as an uncancellable one-shot (the adapter never cancels
         it); staleness is filtered by the incarnation tag instead *)
  | T_inquiry of int
      (* termination protocol: while prepared and undecided, periodically
         ask the coordinator — and, under a replicated commit protocol,
         the acceptors — for the outcome; armed only when [env.inquiry]
         holds (coordinator crashes enabled) *)
  | T_flush
      (* group commit: one per agent, armed when the first record (or
         PREPARE) is staged into an empty batch, cancelled when the batch
         forces early on [Config.max_batch] *)

(* Stable-log writes. Not all are forced to disk — [R_local_commit],
   [R_rollback] and [R_incarnation] are bookkeeping notes, matching
   [Agent_log]'s distinction. *)
type record =
  | R_entry of { gid : int; coordinator : Wire.address }
  | R_command of { gid : int; cmd : Command.t }
  | R_incarnation of { gid : int; inc : int }
  | R_prepare of { gid : int; sn : Sn.t }
  | R_commit of { gid : int }
  | R_local_commit of { gid : int }
  | R_rollback of { gid : int }

type call =
  | L_begin of { gid : int; inc : int }  (* begin a fresh local txn for this incarnation *)
  | L_exec of { gid : int; inc : int; purpose : purpose; cmd : Command.t }
  | L_commit of { gid : int; inc : int }
  | L_abort of { gid : int }
  | L_abort_all_live  (* the site crash: every live local txn unilaterally aborts *)
  | L_hold_open of { gid : int }  (* simulate the prepared state: keep locks, stay open *)
  | L_hold_open_batch of { gids : int list }
      (* group commit: one LTM round-trip holds open a whole vector of
         freshly certified subtransactions *)
  | L_commit_batch of { txns : (int * int) list }
      (* group commit: (gid, inc) pairs whose local commits release
         together after the batch force — one lock-manager round-trip *)
  | L_watch_uan of { gid : int; inc : int }  (* subscribe to the unilateral-abort notification *)
  | L_bind of { gid : int }  (* DLU: bind the txn's footprint *)
  | L_rebind of { gid : int }  (* DLU: release the logged bound set, bind the new footprint *)
  | L_unbind of { gid : int }  (* DLU: release the logged bound set *)
  | L_forget of { gid : int }  (* drop adapter bookkeeping (txn handle, timers) for this gid *)

type verdict =
  | V_ready
  | V_refused_extension of { committed_sn : Sn.t }
  | V_refused_interval of { conflicting_gid : int; conflicting : Interval.t; candidate : Interval.t }
  | V_refused_dead

type event =
  | Ev_alive_check of { gid : int; alive : bool }
  | Ev_resubmission of { gid : int; inc : int }
  | Ev_prepare_certification of { gid : int; sn : Sn.t; verdict : verdict }
  | Ev_refused of { gid : int; refusal : Wire.refusal }
  | Ev_commit_delayed of { gid : int; sn : Sn.t; blocking_gid : int; blocking_sn : Sn.t }
  | Ev_commit_released of { gid : int; waited : int; retries : int }
  | Ev_rollback of { gid : int }
  | Ev_crash of { live : int; prepared : int }
  | Ev_recovered of { gid : int; committed : bool }
  | Ev_in_doubt of { gid : int }
      (* the in-doubt window opened: prepared (or recovered prepared)
         with no decision yet; the adapter's gauge counts these *)
  | Ev_decision of { gid : int; committed : bool; in_doubt : int }
      (* the in-doubt window closed after [in_doubt] ticks: the first
         COMMIT/ROLLBACK/DECISION-RESP for a prepared subtransaction *)
  | Ev_decision_inquiry of { gid : int; inquiries : int }
  | Ev_equivocation_detected of { gid : int }
      (* decision certificates: a bare (uncertified) COMMIT/ROLLBACK
         reached a prepared participant — only an equivocating or
         compromised coordinator sends those, so the decision is ignored
         and the termination protocol resolves the round instead *)
  | Ev_suspicion of { gid : int }
      (* mutual suspicion: the suspicion timeout elapsed with the
         coordinator still silent — escalate to the inquiry path *)

type effect = (timer, record, call, event) Types.effect

(* Group commit (Config.group_commit): a PREPARE buffered for the next
   vectorized certification pass... *)
type pending = { p_gid : int; p_sn : Sn.t }

(* ... and a staged log record together with the effects withheld until
   the batch is force-written. *)
type staged = { s_gid : int; s_record : record; s_deps : effect list }

type state = {
  site : Site.t;
  mutable subs : sub Int_map.t;
  table : Alive_table.t;
  mutable pending : pending list;  (* buffered PREPAREs, newest first *)
  mutable batch : staged list;  (* staged-but-unforced records, newest first *)
  mutable flush_armed : bool;
}

let init ~site =
  {
    site;
    subs = Int_map.empty;
    table = Alive_table.create ();
    pending = [];
    batch = [];
    flush_armed = false;
  }

let n_prepared st = Alive_table.size st.table

(* Group-commit introspection (hygiene checks, tests): how much work is
   waiting for the next flush. A quiesced run must report zero. *)
let staged_records st = List.length st.batch
let buffered_prepares st = List.length st.pending
let flush_pending st = st.batch <> [] || st.pending <> []
let flush_armed st = st.flush_armed
let batch_fill st = List.length st.batch + List.length st.pending

let gc (config : Config.t) = Config.group_commit config

(* Split a step's effect list at its force point — the first batchable
   [Force_log] (READY and decision records only; command/incarnation
   bookkeeping is never staged) — so the record can be staged and the
   post-force effects withheld until the batch force. *)
let split_force effs =
  let rec go pre = function
    | Force_log ((R_prepare _ | R_commit _) as r) :: post -> Some (List.rev pre, r, post)
    | e :: rest -> go (e :: pre) rest
    | [] -> None
  in
  go [] effs

let record_gid = function
  | R_prepare { gid; _ }
  | R_commit { gid }
  | R_entry { gid; _ }
  | R_command { gid; _ }
  | R_incarnation { gid; _ }
  | R_local_commit { gid }
  | R_rollback { gid } ->
      gid

(* Coalesce the withheld per-gid LTM calls of a flushed batch into single
   batch calls (positioned at the first occurrence), amortizing the lock
   round-trip over the vector of gids. *)
let coalesce_calls effs =
  let holds =
    List.filter_map (function Ltm_call (L_hold_open { gid }) -> Some gid | _ -> None) effs
  in
  let commits =
    List.filter_map (function Ltm_call (L_commit { gid; inc }) -> Some (gid, inc) | _ -> None) effs
  in
  if List.length holds <= 1 && List.length commits <= 1 then effs
  else
    let seen_hold = ref false and seen_commit = ref false in
    List.filter_map
      (function
        | Ltm_call (L_hold_open _) ->
            if !seen_hold then None
            else begin
              seen_hold := true;
              Some (Ltm_call (L_hold_open_batch { gids = holds }))
            end
        | Ltm_call (L_commit _) ->
            if !seen_commit then None
            else begin
              seen_commit := true;
              Some (Ltm_call (L_commit_batch { txns = commits }))
            end
        | e -> Some e)
      effs

(* Is this agent one of the configured liars (Byzantine vote denial)? *)
let lying (config : Config.t) (st : state) = Config.lying config ~site:(Site.to_int st.site)

(* Mutual suspicion: the inquiry timer arms whenever the ordinary
   termination protocol is engaged OR a suspicion timeout is configured —
   the latter bounds the in-doubt window against a gray (alive-but-slow)
   coordinator that ordinary crash detection never flags. *)
let inquiry_engaged (config : Config.t) env =
  (env.inquiry && config.Config.decision_inquiry_interval > 0)
  || config.Config.suspicion_timeout > 0

let inquiry_delay (config : Config.t) env =
  if config.Config.suspicion_timeout > 0 then
    if env.inquiry && config.Config.decision_inquiry_interval > 0 then
      min config.Config.suspicion_timeout config.Config.decision_inquiry_interval
    else config.Config.suspicion_timeout
  else config.Config.decision_inquiry_interval

let view env gid = env.views gid
let view_alive env gid = match view env gid with Some v -> v.alive | None -> true
let add_sub st (sub : sub) = st.subs <- Int_map.add sub.gid sub st.subs
let send (sub : sub) payload = Send { dst = sub.coordinator; gid = sub.gid; payload }

let unexpected (st : state) ~src ~gid ~payload =
  Fmt.failwith "agent %a: unexpected message %a" Site.pp st.site Wire.pp
    { Wire.src; dst = Wire.Agent st.site; gid; payload }

(* Take the subtransaction out of the agent: timers off, bound data
   released, table entry gone, adapter bookkeeping dropped. The
   stable-log entry remains. *)
let cleanup (config : Config.t) st (sub : sub) =
  let cancels =
    (if sub.alive_armed then [ Cancel_timer (T_alive sub.gid) ] else [])
    @ (if sub.retry_armed then [ Cancel_timer (T_commit_retry sub.gid) ] else [])
    @ if sub.inquiry_armed then [ Cancel_timer (T_inquiry sub.gid) ] else []
  in
  let unbind = if config.Config.bind_data then [ Ltm_call (L_unbind { gid = sub.gid }) ] else [] in
  Alive_table.remove st.table ~gid:sub.gid;
  st.subs <- Int_map.remove sub.gid st.subs;
  (* a buffered PREPARE of a finished subtransaction is dropped: the
     coordinator already decided, nothing is owed a vote *)
  st.pending <- List.filter (fun p -> p.p_gid <> sub.gid) st.pending;
  cancels @ unbind @ [ Ltm_call (L_forget { gid = sub.gid }) ]

(* Refresh the table's intervals with an immediate alive check, so the
   intersection test never consults stale liveness information. Shared
   by per-message certification and the vectorized flush pass (which
   runs it once for the whole vector). *)
let refresh_table st env =
  Alive_table.iter
    (fun (e : Alive_table.entry) ->
      match Int_map.find_opt e.Alive_table.gid st.subs with
      | Some other when (not other.resubmitting) && view_alive env e.Alive_table.gid ->
          Alive_table.extend_entry e ~hi:env.now
      | Some _ | None -> ())
    st.table

(* ------------------------------------------------------------------ *)
(* Resubmission (§2, §3): replay the logged commands as a fresh local
   subtransaction. On completion a new alive interval starts; if the new
   incarnation is itself unilaterally aborted mid-replay, start over
   after a small backoff. *)
(* ------------------------------------------------------------------ *)

let rec start_resubmission config st env (sub : sub) =
  if sub.resubmitting then []
  else begin
    (* A unilateral abort can race an in-flight [L_commit]: the LTM's
       [Commit_done] for the dead incarnation is dropped by its [inc]
       guard, so [committing] must be voided here or the fresh
       incarnation's commit path stays blocked forever. *)
    sub.resubmitting <- true;
    sub.committing <- false;
    attempt_resubmission config st env sub
  end

(* One resubmission attempt; [resubmitting] stays set across backoff
   retries, so the commit path and the alive check keep waiting instead
   of racing a fresh resubmission past the backoff. *)
and attempt_resubmission (config : Config.t) st env (sub : sub) =
  sub.inc <- sub.inc + 1;
  let head =
    [
      Emit (Ev_resubmission { gid = sub.gid; inc = sub.inc });
      Force_log (R_incarnation { gid = sub.gid; inc = sub.inc });
      Ltm_call (L_begin { gid = sub.gid; inc = sub.inc });
      Ltm_call (L_hold_open { gid = sub.gid });
    ]
  in
  sub.to_feed <- List.rev sub.commands_rev;
  head @ feed_next config st env sub

(* Replay the next logged command into the fresh incarnation (shared by
   resubmission and crash recovery); when none remain, the resubmission
   is complete. *)
and feed_next config st env (sub : sub) =
  match sub.to_feed with
  | cmd :: rest ->
      sub.to_feed <- rest;
      [ Ltm_call (L_exec { gid = sub.gid; inc = sub.inc; purpose = Feed; cmd }) ]
  | [] -> resubmission_complete config st env sub

and resubmission_complete (config : Config.t) st env (sub : sub) =
  sub.resubmitting <- false;
  (* "A new interval is always initiated after the resubmission of all
     the commands is complete." *)
  Alive_table.update_interval st.table ~gid:sub.gid (Interval.point env.now);
  let effs =
    Ltm_call (L_watch_uan { gid = sub.gid; inc = sub.inc })
    ::
    (* Re-bind: under CI + DLU the footprint cannot have changed, but
       ablations may violate that, so bind what was actually accessed. *)
    (if config.Config.bind_data then [ Ltm_call (L_rebind { gid = sub.gid }) ] else [])
  in
  if sub.decision_commit then effs @ try_commit config st env sub else effs

(* Commit certification (Appendix C). [sub] must be in [st.subs]. *)
and try_commit (config : Config.t) st env (sub : sub) =
  if (not sub.decision_commit) || sub.committing then []
  else if sub.resubmitting then [] (* resubmission_complete will call back *)
  else
    match sub.sn with
    | None when gc config ->
        (* Group commit: the PREPARE is still buffered (a decision can
           only overtake its own PREPARE on a duplicating network under
           the Counted-quorum bug); the coordinator's decision
           retransmission retries after the flush has certified it. *)
        []
    | None ->
        (* Without batching a COMMIT for an uncertified subtransaction is
           unreachable on a correct coordinator; keep the historical
           hard failure so the model checker surfaces quorum bugs. *)
        try_commit_certified config st env sub (Option.get sub.sn)
    | Some sn -> try_commit_certified config st env sub sn

and try_commit_certified (config : Config.t) st env (sub : sub) sn =
    let certified =
      (not config.Config.commit_certification)
      || Alive_table.min_sn_holds st.table ~gid:sub.gid ~sn
      || (gc config
         (* Vectorized commit certification: under group commit an entry
            whose own decision is already staged ([committing] — its
            [L_commit] sits earlier in the batch, or already ran) no
            longer blocks. Local commits apply in staging order, so the
            SN order of commit application — the property the min-SN rule
            protects — is preserved without paying a full batch window
            per transaction in the commit chain. *)
         && Alive_table.for_all
              (fun (e : Alive_table.entry) ->
                e.Alive_table.gid = sub.gid
                || Sn.(e.Alive_table.sn > sn)
                ||
                match Int_map.find_opt e.Alive_table.gid st.subs with
                | Some s -> s.committing
                | None -> true)
              st.table)
    in
    if not certified then
      (* Commit certification failed: retry at a later time. *)
      let blocking_gid, blocking_sn =
        match Alive_table.min_sn_blocker st.table ~gid:sub.gid ~sn with
        | Some b -> (b.Alive_table.gid, b.Alive_table.sn)
        | None -> (sub.gid, sn)
      in
      let cancels = if sub.retry_armed then [ Cancel_timer (T_commit_retry sub.gid) ] else [] in
      sub.sn_retries <- sub.sn_retries + 1;
      sub.retry_armed <- true;
      Emit (Ev_commit_delayed { gid = sub.gid; sn; blocking_gid; blocking_sn })
      :: cancels
      @ [ Arm_timer { timer = T_commit_retry sub.gid; delay = commit_retry_interval } ]
    else if not (view_alive env sub.gid) then start_resubmission config st env sub
    else begin
      (* "Write the commit record to the Agent log; commit the local
         subtransaction ..." — the decision is durable before the local
         commit, so a crash in between redoes it at recovery. Under group
         commit the record is staged and the local commit withheld until
         the batch force, so the decision is still durable first. *)
      sub.committing <- true;
      let effs =
        [ Force_log (R_commit { gid = sub.gid }); Ltm_call (L_commit { gid = sub.gid; inc = sub.inc }) ]
      in
      if gc config then stage_effects config st env effs else effs
    end

(* Group commit: stage a step's force point into the batch, withholding
   the post-force effects; pre-force effects are emitted immediately.
   Fills to [Config.max_batch] force the batch inside the same step. *)
and stage_effects config st env effs =
  match split_force effs with
  | None -> effs
  | Some (pre, r, post) ->
      st.batch <- { s_gid = record_gid r; s_record = r; s_deps = post } :: st.batch;
      if batch_fill st >= config.Config.max_batch then pre @ flush config st env ~fired:false
      else if st.flush_armed then pre
      else begin
        st.flush_armed <- true;
        pre @ [ Arm_timer { timer = T_flush; delay = config.Config.group_commit_window } ]
      end

(* The group-commit flush: vector-certify the buffered PREPAREs — one
   alive-table refresh and one sampled environment amortized over the
   whole vector — then force every staged record with a single I/O
   ([Force_batch]) and release the withheld effects, oldest first, with
   the per-gid LTM calls coalesced into batch calls. *)
and flush config st env ~fired =
  let cancel = if (not fired) && st.flush_armed then [ Cancel_timer T_flush ] else [] in
  st.flush_armed <- false;
  let pending = List.rev st.pending in
  st.pending <- [];
  if pending <> [] then refresh_table st env;
  (* Staged decision records count as committed for the extension check:
     a buffered PREPARE behind a staged commit's SN must be refused
     exactly as if the commit had already been forced — the release its
     withheld [L_commit] performs right after this flush would otherwise
     slip past the min-SN rule. *)
  let env =
    let bigger a = match a with Some m -> fun sn -> Sn.(sn > m) | None -> fun _ -> true in
    let staged_commit_sn =
      List.fold_left
        (fun acc s ->
          match s.s_record with
          | R_commit { gid } -> (
              match Int_map.find_opt gid st.subs with
              | Some { sn = Some sn; _ } when bigger acc sn -> Some sn
              | Some _ | None -> acc)
          | _ -> acc)
        None st.batch
    in
    match staged_commit_sn with
    | Some sn when bigger env.max_committed_sn sn -> { env with max_committed_sn = Some sn }
    | Some _ | None -> env
  in
  let cert_pre =
    List.fold_left
      (fun acc p ->
        match Int_map.find_opt p.p_gid st.subs with
        | Some sub when sub.state = Active -> (
            let effs = certify_prepare ~refresh:false config st env sub p.p_sn in
            match split_force effs with
            | None -> acc @ effs (* a refusal: nothing to force *)
            | Some (pre, r, post) ->
                st.batch <- { s_gid = p.p_gid; s_record = r; s_deps = post } :: st.batch;
                acc @ pre)
        | Some _ | None ->
            (* the subtransaction finished (rollback, crash) while its
               PREPARE waited; the coordinator has its answer already *)
            acc)
      [] pending
  in
  match List.rev st.batch with
  | [] -> cancel @ cert_pre
  | staged ->
      let records = List.map (fun s -> s.s_record) staged in
      let deps = coalesce_calls (List.concat_map (fun s -> s.s_deps) staged) in
      st.batch <- [];
      cancel @ cert_pre @ (Force_batch records :: deps)

(* ------------------------------------------------------------------ *)
(* Prepare certification (Appendix B) and the other message rules       *)
(* ------------------------------------------------------------------ *)

and refuse config st (sub : sub) refusal =
  let cleanup_effs = cleanup config st sub in
  Emit (Ev_refused { gid = sub.gid; refusal })
  :: Ltm_call (L_abort { gid = sub.gid })
  :: send sub (Wire.Refuse refusal)
  :: cleanup_effs

(* Extended prepare certification (Appendix B). [refresh] is false when
   the flush pass has already refreshed the table once for the whole
   vector of buffered PREPAREs. *)
and certify_prepare ?(refresh = true) (config : Config.t) st env (sub : sub) sn =
  sub.sn <- Some sn;
  let drift_ok =
    match config.Config.max_sn_drift with
    | Some bound -> Time.diff env.now (Sn.ts sn) <= bound
    | None -> true
  in
  let extension_ok =
    (not config.Config.certification_extension)
    || match env.max_committed_sn with Some m -> Sn.(sn > m) | None -> true
  in
  if not drift_ok then
    (* The serial number was drawn from a clock further in the past than
       the drift bound allows: a stale-clock coordinator could slot the
       commit below serial numbers this site has already released, so the
       PREPARE is refused outright. *)
    refuse config st sub Wire.Drift_refused
  else if not extension_ok then
    (* §5.3: an "older" (bigger-SN) subtransaction already committed
       here; preparing this one would certify a non-serializable order. *)
    let committed_sn = Option.value ~default:sn env.max_committed_sn in
    let effs = refuse config st sub Wire.Extension_refused in
    Emit (Ev_prepare_certification { gid = sub.gid; sn; verdict = V_refused_extension { committed_sn } })
    :: effs
  else begin
    (* Basic prepare certification: refresh the table's intervals with an
       immediate alive check, then test the intersection rule. *)
    if refresh then refresh_table st env;
    let last = (Option.get (view env sub.gid)).last_op_done in
    let candidate = Interval.make ~lo:last ~hi:env.now in
    let interval_ok =
      (not config.Config.prepare_certification) || Alive_table.all_intersect st.table candidate
    in
    if not interval_ok then
      let verdict =
        match Alive_table.first_non_intersecting st.table candidate with
        | Some b ->
            V_refused_interval
              { conflicting_gid = b.Alive_table.gid;
                conflicting = b.Alive_table.interval;
                candidate }
        | None -> V_refused_interval { conflicting_gid = sub.gid; conflicting = candidate; candidate }
      in
      let effs = refuse config st sub Wire.Interval_refused in
      Emit (Ev_prepare_certification { gid = sub.gid; sn; verdict }) :: effs
    else if not (view_alive env sub.gid) then
      (* CI(2): a unilaterally aborted subtransaction is never prepared. *)
      let effs = refuse config st sub Wire.Dead_refused in
      Emit (Ev_prepare_certification { gid = sub.gid; sn; verdict = V_refused_dead }) :: effs
    else begin
      (* Force write the prepare record; move to the prepared state. The
         in-doubt window opens here; with the termination protocol
         engaged (or a suspicion timeout set) the inquiry timer bounds
         it. *)
      let inq = inquiry_engaged config env in
      sub.state <- Prepared;
      sub.alive_armed <- true;
      sub.prepared_at <- Some env.now;
      sub.inquiry_armed <- inq;
      Alive_table.insert st.table ~gid:sub.gid ~sn ~interval:candidate;
      [
        Emit (Ev_prepare_certification { gid = sub.gid; sn; verdict = V_ready });
        Force_log (R_prepare { gid = sub.gid; sn });
        Record (H_prepare { gid = sub.gid; sn });
        Ltm_call (L_hold_open { gid = sub.gid });
        Ltm_call (L_watch_uan { gid = sub.gid; inc = sub.inc });
      ]
      @ (if config.Config.bind_data then [ Ltm_call (L_bind { gid = sub.gid }) ] else [])
      @ [
          send sub
            (if config.Config.decision_certificates then Wire.Ready_certified { sn } else Wire.Ready);
          Arm_timer { timer = T_alive sub.gid; delay = alive_check_interval };
        ]
      @ Emit (Ev_in_doubt { gid = sub.gid })
        ::
        (if inq then [ Arm_timer { timer = T_inquiry sub.gid; delay = inquiry_delay config env } ]
         else [])
    end
  end

let handle_begin st ~gid ~coordinator =
  add_sub st
    {
      gid;
      coordinator;
      inc = 0;
      commands_rev = [];
      state = Active;
      sn = None;
      resubmitting = false;
      to_feed = [];
      committing = false;
      decision_commit = false;
      decision_at = None;
      prepared_at = None;
      sn_retries = 0;
      inquiries = 0;
      alive_armed = false;
      retry_armed = false;
      inquiry_armed = false;
    };
  [ Force_log (R_entry { gid; coordinator }); Ltm_call (L_begin { gid; inc = 0 }) ]

let handle_exec (sub : sub) ~step cmd =
  (* The step index doubles as the dedup key: a duplicated EXEC carries a
     step below the logged command count (per-link FIFO keeps steps in
     order, so it can never be above). *)
  if step = List.length sub.commands_rev then begin
    sub.commands_rev <- cmd :: sub.commands_rev;
    [
      Force_log (R_command { gid = sub.gid; cmd });
      Ltm_call (L_exec { gid = sub.gid; inc = sub.inc; purpose = Reply step; cmd });
    ]
  end
  else []

(* The COMMIT decision for a tracked subtransaction: close the in-doubt
   window on the first decision, note it, run commit certification.
   Shared verbatim by COMMIT, COMMIT-certified and DECISION-RESP(commit)
   — the inquiry answer must bypass the certificate gate, it is the
   participant's own solicited decision. *)
let handle_commit config st env (sub : sub) =
  let first = sub.decision_at = None in
  let decision_effs =
    if first && sub.state = Prepared then
      (match sub.prepared_at with
      | Some p ->
          [
            Emit
              (Ev_decision { gid = sub.gid; committed = true; in_doubt = Time.diff env.now p });
          ]
      | None -> [])
      @ (if sub.inquiry_armed then [ Cancel_timer (T_inquiry sub.gid) ] else [])
    else []
  in
  if first then sub.decision_at <- Some env.now;
  sub.decision_commit <- true;
  sub.inquiry_armed <- false;
  decision_effs @ try_commit config st env sub

(* The lying agent's commit path: acknowledge the decision, silently
   abort the local subtransaction instead of committing it. Nothing is
   logged — the denial survives crash and replay. *)
let handle_commit_lying config st (sub : sub) =
  let cleanup_effs = cleanup config st sub in
  Ltm_call (L_abort { gid = sub.gid }) :: send sub Wire.Commit_ack :: cleanup_effs

let handle_rollback config st env (sub : sub) =
  (* A ROLLBACK for a prepared subtransaction closes its in-doubt window. *)
  let decision =
    match (sub.state, sub.prepared_at) with
    | Prepared, Some p when sub.decision_at = None ->
        [ Emit (Ev_decision { gid = sub.gid; committed = false; in_doubt = Time.diff env.now p }) ]
    | _ -> []
  in
  let cleanup_effs = cleanup config st sub in
  Emit (Ev_rollback { gid = sub.gid })
  :: (decision
     @ Force_log (R_rollback { gid = sub.gid })
       :: Ltm_call (L_abort { gid = sub.gid })
       :: send sub Wire.Rollback_ack
       :: cleanup_effs)

(* Replies for subtransactions the volatile state no longer knows —
   either lost to a crash (active-state work is simply gone; 2PC lets a
   participant abort anything it never promised) or already finished
   (decision retransmissions are answered idempotently from the log). *)
let handle_unknown (config : Config.t) st ~src ~gid ~payload ~(log : log_view) =
  let answer payload = Send { dst = src; gid; payload } in
  match payload with
  | Wire.Exec { step; cmd; epoch = _ } ->
      if (not log.known) && step = 0 then
        (* The BEGIN was lost by the network; the first command implies
           it (later steps after a crash find a logged entry below). *)
        let begin_effs = handle_begin st ~gid ~coordinator:src in
        begin_effs @ handle_exec (Int_map.find gid st.subs) ~step cmd
      else [ answer (Wire.Exec_failed { step; reason = "subtransaction lost in a site crash" }) ]
  | Wire.Prepare _ ->
      if log.known && log.prepared && not log.rolled_back then
        (* A retransmitted PREPARE whose READY was lost (or chased a
           crash): the promise is on disk, repeat the vote. *)
        let vote =
          match log.sn with
          | Some sn when config.Config.decision_certificates -> Wire.Ready_certified { sn }
          | _ -> Wire.Ready
        in
        [ answer vote ]
      else
        (* Either the subtransaction really was lost to a crash, or this
           is a lying agent denying the promise it never made durable —
           from here the two are indistinguishable. *)
        [ answer (Wire.Refuse Wire.Dead_refused) ]
  | Wire.Commit ->
      if log.known && log.locally_committed then [ answer Wire.Commit_ack ]
      else if log.known && log.prepared && not log.rolled_back then
        (* The decision reached a crashed-but-logged subtransaction
           (crash and recovery separated in time): note it durably so
           recovery redoes the local commit and answers the ack then. *)
        if not log.committed then [ Force_log (R_commit { gid }) ] else []
      else if lying config st then
        (* The liar logged no prepare and dropped its local commit; it
           keeps acknowledging so the round quiesces. *)
        [ answer Wire.Commit_ack ]
      else Fmt.failwith "agent %a: COMMIT for unknown, uncommitted T%d" Site.pp st.site gid
  | Wire.Rollback when config.Config.decision_certificates ->
      (* Certificates on: honest decisions are always certified, so a
         bare ROLLBACK chasing a finished subtransaction is forged — an
         equivocating coordinator's retransmission hunting for a stale
         participant. Note the conflict; never obey or acknowledge it. *)
      [ Emit (Ev_equivocation_detected { gid }) ]
  | Wire.Rollback | Wire.Rollback_certified ->
      (if log.known then [ Force_log (R_rollback { gid }) ] else []) @ [ answer Wire.Rollback_ack ]
  | _ -> unexpected st ~src ~gid ~payload

let deliver config st env ~src ~gid ~payload ~(log : log_view) =
  match payload with
  | Wire.Decision_resp { committed } -> (
      (* The termination protocol's answer carries exactly the decision;
         it dispatches to the decision handlers directly — never through
         the certificate gate, which only guards unsolicited decisions. *)
      match Int_map.find_opt gid st.subs with
      | Some sub -> if committed then handle_commit config st env sub else handle_rollback config st env sub
      | None ->
          handle_unknown config st ~src ~gid
            ~payload:
              (if committed then Wire.Commit
               else if config.Config.decision_certificates then Wire.Rollback_certified
               else Wire.Rollback)
            ~log)
  | Wire.Begin { epoch } when epoch <> env.epoch ->
      (* The coordinator resolved through a placement map this agent has
         since superseded: refuse before any work starts. The sender
         aborts, the client re-resolves through the new map and
         resubmits. *)
      [
        Emit (Ev_refused { gid; refusal = Wire.Wrong_epoch });
        Send { dst = src; gid; payload = Wire.Refuse Wire.Wrong_epoch };
      ]
  | Wire.Begin _ ->
      if Int_map.mem gid st.subs || log.known then
        [] (* duplicated BEGIN, or one for a gid the log already knows *)
      else handle_begin st ~gid ~coordinator:src
  | Wire.Exec { epoch; _ } when epoch <> env.epoch -> (
      (* A command resolved under a superseded map. If the BEGIN landed
         before the reconfiguration the subtransaction exists: abort it
         and refuse, so the whole global transaction restarts under the
         new placement rather than half-executing across epochs. *)
      match Int_map.find_opt gid st.subs with
      | Some sub -> refuse config st sub Wire.Wrong_epoch
      | None ->
          [
            Emit (Ev_refused { gid; refusal = Wire.Wrong_epoch });
            Send { dst = src; gid; payload = Wire.Refuse Wire.Wrong_epoch };
          ])
  | Wire.Exec { step; cmd; epoch = _ } -> (
      match Int_map.find_opt gid st.subs with
      | Some sub -> handle_exec sub ~step cmd
      | None -> handle_unknown config st ~src ~gid ~payload ~log)
  | Wire.Prepare sn -> (
      match Int_map.find_opt gid st.subs with
      | Some sub -> (
          match sub.state with
          | Prepared ->
              (* A retransmitted or duplicated PREPARE: the promise is
                 already on disk, so repeat the vote. *)
              let vote =
                match sub.sn with
                | Some sn when config.Config.decision_certificates -> Wire.Ready_certified { sn }
                | _ -> Wire.Ready
              in
              [ send sub vote ]
          | Active when lying config st ->
              (* Vote denial: promise READY with nothing behind it — no
                 certification, no force-written prepare record, no
                 held-open locks. The vote is necessarily bare: the liar
                 holds no prepare record to certify it with. *)
              sub.sn <- Some sn;
              [ send sub Wire.Ready ]
          | Active ->
              if gc config then
                (* Group commit: buffer the PREPARE for the vectorized
                   certification pass at the next flush. A retransmission
                   of an already-buffered PREPARE is absorbed (the flush
                   will answer it). *)
                if List.exists (fun p -> p.p_gid = gid) st.pending then []
                else begin
                  st.pending <- { p_gid = gid; p_sn = sn } :: st.pending;
                  if batch_fill st >= config.Config.max_batch then flush config st env ~fired:false
                  else if st.flush_armed then []
                  else begin
                    st.flush_armed <- true;
                    [ Arm_timer { timer = T_flush; delay = config.Config.group_commit_window } ]
                  end
                end
              else certify_prepare config st env sub sn)
      | None -> handle_unknown config st ~src ~gid ~payload ~log)
  | Wire.Commit -> (
      match Int_map.find_opt gid st.subs with
      | Some sub when lying config st -> handle_commit_lying config st sub
      | Some sub when config.Config.decision_certificates && sub.state = Prepared ->
          (* Certificate gate: a bare COMMIT reached a prepared
             participant although honest coordinators certify every
             decision — ignore it and let the inquiry path resolve the
             round from the durable log. *)
          [ Emit (Ev_equivocation_detected { gid }) ]
      | Some sub -> handle_commit config st env sub
      | None -> handle_unknown config st ~src ~gid ~payload ~log)
  | Wire.Commit_certified _ -> (
      match Int_map.find_opt gid st.subs with
      | Some sub when lying config st -> handle_commit_lying config st sub
      | Some sub -> handle_commit config st env sub
      | None -> handle_unknown config st ~src ~gid ~payload:Wire.Commit ~log)
  | Wire.Rollback -> (
      match Int_map.find_opt gid st.subs with
      | Some sub when config.Config.decision_certificates && sub.state = Prepared ->
          (* The bare half of an equivocating coordinator's split (or a
             forged abort): refuse to roll back a promised subtransaction
             on an uncertified decision. *)
          [ Emit (Ev_equivocation_detected { gid }) ]
      | Some sub -> handle_rollback config st env sub
      | None -> handle_unknown config st ~src ~gid ~payload ~log)
  | Wire.Rollback_certified -> (
      match Int_map.find_opt gid st.subs with
      | Some sub -> handle_rollback config st env sub
      | None -> handle_unknown config st ~src ~gid ~payload:Wire.Rollback ~log)
  | Wire.Exec_ok _ | Wire.Exec_failed _ | Wire.Ready | Wire.Ready_certified _ | Wire.Refuse _
  | Wire.Commit_ack | Wire.Rollback_ack | Wire.Decision_req
  (* Paxos Commit traffic flows between the leader and its acceptors
     only; a participant never sees it. *)
  | Wire.Px_accept _ | Wire.Px_accepted _ | Wire.Px_query _ | Wire.Px_promise _
  | Wire.Px_decision _ ->
      unexpected st ~src ~gid ~payload

(* An independent state to step on when [st] itself must survive: the
   subtransaction records and the alive table are duplicated; the
   buffered lists are immutable and shared. *)
let copy st =
  {
    st with
    subs = Int_map.map (fun (sub : sub) -> { sub with gid = sub.gid }) st.subs;
    table = Alive_table.copy st.table;
  }

let step (config : Config.t) (st : state) (input : input) : effect list =
  match input with
  | Deliver { env; src; gid; payload; log } -> deliver config st env ~src ~gid ~payload ~log
  | Alive_fired { env; gid } -> (
      (* Alive check (Appendix A). The timer re-arms itself — always the
         last effect, as the old code re-scheduled after the check. *)
      match Int_map.find_opt gid st.subs with
      | None -> []
      | Some sub ->
          let rearm =
            [ Arm_timer { timer = T_alive gid; delay = alive_check_interval } ]
          in
          if sub.resubmitting || sub.committing then
            (* Resubmitting: a new interval starts when it completes.
               Committing: the local commit is under way, and the LTM's
               commit ends the transaction's aliveness before its
               callback arrives; a resubmission now would commit the
               subtransaction a second time. A refused commit resubmits
               from [Commit_done]. *)
            rearm
          else
            let alive = view_alive env gid in
            if alive then begin
              Alive_table.extend_interval st.table ~gid ~hi:env.now;
              Emit (Ev_alive_check { gid; alive }) :: rearm
            end
            else (Emit (Ev_alive_check { gid; alive }) :: start_resubmission config st env sub) @ rearm)
  | Flush_fired { env } ->
      (* Group commit: the window elapsed. The timer already fired, so no
         cancel effect; [flush] clears the armed flag. *)
      flush config st env ~fired:true
  | Retry_fired { env; gid } -> (
      match Int_map.find_opt gid st.subs with
      | None -> []
      | Some sub ->
          sub.retry_armed <- false;
          try_commit config st env sub)
  | Inquiry_fired { env; gid } -> (
      (* Termination protocol: still prepared with no decision — ask the
         coordinator (or its rebooted incarnation) for the outcome and
         re-arm. Under a replicated commit protocol the inquiry also
         probes the decision register: a decided acceptor answers, and an
         undecided one starts a recovery ballot — this is what makes the
         round terminate even if the coordinator never reboots. The probe
         targets ONE acceptor per firing, round-robin, not all of them:
         a fan-out would start up to 2F+1 duelling recovery ballots at
         once, while successive probes walk the replica set and reach a
         live acceptor within F+1 firings regardless of which F died.
         Once any decision has arrived the timer dies out. *)
      ignore env;
      match Int_map.find_opt gid st.subs with
      | Some sub when sub.state = Prepared && sub.decision_at = None && not sub.decision_commit ->
          let probe =
            let n_acc = Config.n_acceptors config in
            if n_acc = 0 then []
            else
              [
                Send
                  {
                    dst = Wire.Acceptor { gid; idx = sub.inquiries mod n_acc };
                    gid;
                    payload = Wire.Decision_req;
                  };
              ]
          in
          sub.inquiries <- sub.inquiries + 1;
          sub.inquiry_armed <- true;
          let suspicion =
            if config.Config.suspicion_timeout > 0 then [ Emit (Ev_suspicion { gid }) ] else []
          in
          suspicion
          @ Emit (Ev_decision_inquiry { gid; inquiries = sub.inquiries })
            :: send sub Wire.Decision_req
            :: probe
          @ [ Arm_timer { timer = T_inquiry gid; delay = inquiry_delay config env } ]
      | Some sub when sub.inquiry_armed ->
          sub.inquiry_armed <- false;
          []
      | Some _ | None -> [])
  | Backoff_fired { env; gid; inc } -> (
      match Int_map.find_opt gid st.subs with
      | Some sub when sub.inc = inc -> attempt_resubmission config st env sub
      | _ -> [] (* a stale backoff of a finished/superseded incarnation *))
  | Uan { env; gid; inc } -> (
      match Int_map.find_opt gid st.subs with
      | Some sub when sub.inc = inc -> start_resubmission config st env sub
      | _ -> [])
  | Exec_done { env; gid; inc; purpose; result } -> (
      match Int_map.find_opt gid st.subs with
      | Some sub when sub.inc = inc -> (
          match (purpose, result) with
          | Reply step, Done r -> [ send sub (Wire.Exec_ok { step; result = r }) ]
          | Reply step, Failed reason -> [ send sub (Wire.Exec_failed { step; reason }) ]
          | Feed, Done _ -> feed_next config st env sub
          | Feed, Failed _ ->
              (* The incarnation died (unilateral abort, lock timeout,
                 deadlock victim): try again later. *)
              [ Arm_timer { timer = T_backoff { gid; inc }; delay = config.Config.resubmit_backoff } ])
      | _ -> [])
  | Commit_done { env; gid; inc; committed } -> (
      match Int_map.find_opt gid st.subs with
      | Some sub when sub.inc = inc ->
          if committed then
            let waited = match sub.decision_at with Some d -> Time.diff env.now d | None -> 0 in
            let cleanup_effs = cleanup config st sub in
            Emit (Ev_commit_released { gid; waited; retries = sub.sn_retries })
            :: Force_log (R_local_commit { gid })
            :: send sub Wire.Commit_ack
            :: cleanup_effs
          else begin
            (* Aborted between the alive check and the commit: resubmit
               and retry. *)
            sub.committing <- false;
            start_resubmission config st env sub
          end
      | _ -> [])
  | Crash { live } ->
      (* All volatile state is lost; only the Agent log survives.
         Prepared subtransactions' timers are silenced (active ones have
         none), then every live local transaction suffers the collective
         unilateral abort. The DLU bound sets are *not* released: the
         logged bindings keep local transactions off in-doubt data while
         recovery runs. *)
      let prepared = Alive_table.size st.table in
      let cancels =
        Int_map.fold
          (fun gid (sub : sub) acc ->
            if sub.state = Prepared then
              acc
              @ (if sub.alive_armed then [ Cancel_timer (T_alive gid) ] else [])
              @ (if sub.retry_armed then [ Cancel_timer (T_commit_retry gid) ] else [])
              @ (if sub.inquiry_armed then [ Cancel_timer (T_inquiry gid) ] else [])
            else acc)
          st.subs []
      in
      let cancels = cancels @ if st.flush_armed then [ Cancel_timer T_flush ] else [] in
      (* Staged-but-unforced records and buffered PREPAREs are volatile:
         the crash loses them, exactly the durability the protocol
         expects of an unforced record. *)
      st.subs <- Int_map.empty;
      Alive_table.clear st.table;
      st.pending <- [];
      st.batch <- [];
      st.flush_armed <- false;
      (Emit (Ev_crash { live; prepared }) :: cancels) @ [ Ltm_call L_abort_all_live ]
  | Recover { env; entries } ->
      (* Rebuild every in-doubt subtransaction from the log: a fresh
         incarnation replays the logged commands; the alive-interval
         entry restarts; if the commit record was already forced the
         decision is known and the commit is redone locally once the
         replay completes. *)
      List.fold_left
        (fun effs (e : recover_entry) ->
          let inc = e.r_inc + 1 in
          (* A recovered entry with no decision record is still in doubt:
             its in-doubt window restarts at recovery time (the pre-crash
             stretch is not measurable from the log) and, with the
             termination protocol engaged, the inquiry timer restarts
             with it. *)
          let inq = (not e.r_committed) && inquiry_engaged config env in
          let sub =
            {
              gid = e.r_gid;
              coordinator = e.r_coordinator;
              inc;
              commands_rev = List.rev e.r_commands;
              state = Prepared;
              sn = e.r_sn;
              resubmitting = true;
              to_feed = e.r_commands;
              committing = false;
              decision_commit = e.r_committed;
              decision_at = (if e.r_committed then Some env.now else None);
              prepared_at = Some env.now;
              sn_retries = 0;
              inquiries = 0;
              alive_armed = true;
              retry_armed = false;
              inquiry_armed = inq;
            }
          in
          Alive_table.insert st.table ~gid:sub.gid ~sn:(Option.get e.r_sn)
            ~interval:(Interval.point env.now);
          let head =
            [
              Emit (Ev_recovered { gid = sub.gid; committed = e.r_committed });
              Force_log (R_incarnation { gid = sub.gid; inc });
              Ltm_call (L_begin { gid = sub.gid; inc });
              Ltm_call (L_hold_open { gid = sub.gid });
            ]
          in
          add_sub st sub;
          let feed_effs = feed_next config st env sub in
          effs @ head @ feed_effs
          @ [ Arm_timer { timer = T_alive sub.gid; delay = alive_check_interval } ]
          @ (if e.r_committed then [] else [ Emit (Ev_in_doubt { gid = sub.gid }) ])
          @
          if inq then [ Arm_timer { timer = T_inquiry sub.gid; delay = inquiry_delay config env } ]
          else [])
        [] entries

(* ------------------------------------------------------------------ *)
(* Shard handover (placement reconfiguration). When a shard moves, the
   losing site's certification state for its prepared subtransactions —
   the alive-table entries, i.e. serial numbers and alive intervals —
   must reach the gaining site BEFORE the new epoch serves traffic
   there, or the gainer would certify new PREPAREs against an empty
   table and admit orders the loser already ruled out. The adopted
   entries are *foreign*: the gainer holds no local subtransaction for
   them, but they participate in interval intersection and min-SN commit
   certification exactly like native ones, conservatively gating new
   work until their global decisions arrive and [drop_foreign] releases
   them. None of the three changes the state it is given: adopting and
   dropping copy the table first (copy-on-write). *)
(* ------------------------------------------------------------------ *)

type handover_entry = { h_gid : int; h_sn : Sn.t; h_interval : Interval.t }

let export_handover st ~gids =
  List.filter_map
    (fun gid ->
      match Alive_table.find st.table ~gid with
      | Some e ->
          Some { h_gid = gid; h_sn = e.Alive_table.sn; h_interval = e.Alive_table.interval }
      | None -> None)
    gids

let adopt_handover st entries =
  let st = { st with table = Alive_table.copy st.table } in
  List.iter
    (fun h ->
      (* Skip gids this agent participates in natively: its own prepare
         inserts (or already inserted) the entry, and an adopted copy
         would collide with that insert. *)
      if not (Int_map.mem h.h_gid st.subs) && not (Alive_table.mem st.table ~gid:h.h_gid) then
        Alive_table.insert st.table ~gid:h.h_gid ~sn:h.h_sn ~interval:h.h_interval)
    entries;
  st

let drop_foreign st ~gid =
  (* Only foreign entries are released this way: a native subtransaction
     (present in [subs]) owns its entry through its own 2PC lifecycle. *)
  if Int_map.mem gid st.subs || not (Alive_table.mem st.table ~gid) then st
  else begin
    let st = { st with table = Alive_table.copy st.table } in
    Alive_table.remove st.table ~gid;
    st
  end
