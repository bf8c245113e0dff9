(* Paxos Commit (Gray & Lamport, "Consensus on Transaction Commit"):
   the commit/abort decision as a write-once Paxos-replicated register.

   One instance of this machine is acceptor [idx] of transaction [gid]'s
   decision register; the register has [Config.n_acceptors] instances
   spread over sites and a read = write quorum of
   [Config.replica_quorum].  The coordinator ([Coordinator_sm]) is the
   instance's ballot-0 leader: once every participant has voted READY it
   proposes [commit] at ballot 0 and announces COMMIT only after a write
   quorum of acceptors has accepted — so the decision survives F
   acceptor-or-leader failures.  A fast ABORT is never replicated: a
   recovery ballot that finds no accepted value is free to choose abort
   (presumed abort, replicated edition), so commit is the only value that
   must be visible in the register before it is announced.

   Recovery: any acceptor prodded with DECISION-REQ while undecided
   becomes a recovery leader and runs a full ballot — phase 1
   ([Px_query]/[Px_promise]) over a read quorum, then phase 2
   ([Px_accept]/[Px_accepted]) of the highest accepted value (or abort if
   none) over a write quorum — before answering its askers.  Acceptors
   lead over disjoint ballot spaces (ballot = round * n + idx + 1, ballot
   0 reserved for the coordinator) so two recovery leaders can never
   collide on a ballot; a nacked leader abandons and re-runs a higher
   ballot at the *next* DECISION-REQ, so duelling leaders are paced by
   the askers' inquiry timers.

   The machine is deliberately timerless (the ['timer] vocabulary is
   [never]): all liveness is driven by in-doubt participants re-firing
   their inquiry timers and by the leader's retransmission timer.  A
   leading acceptor applies its own phase-1a/2a to itself locally rather
   than sending to itself, which both matches the TLA model and keeps
   the model checker's state space small.

   [promised], [accepted] and [decided] are force-written before any
   message that depends on them leaves (the classic Paxos durability
   rule); [askers], [round] and leadership are volatile and rebuilt by
   re-asking.

   Ownership, as in [Agent_sm]: [step] owns its input state, updates it
   in place and returns only the effects; a caller that branches from a
   state steps on [copy st]. *)

open Hermes_kernel
open Types

type config = { n : int; quorum : int; certificates : bool }

let config certifier =
  {
    n = Config.n_acceptors certifier;
    quorum = Config.replica_quorum certifier;
    certificates = certifier.Config.decision_certificates;
  }

(* Stable acceptor-log writes, all forced. *)
type record =
  | R_promised of { ballot : int }
  | R_accepted of { ballot : int; committed : bool }
  | R_decided of { committed : bool }

type event =
  | Recovery_ballot of { ballot : int }  (* this acceptor starts leading a full ballot *)
  | Chosen of { ballot : int; committed : bool }  (* its ballot reached a write quorum *)
  | Nacked of { ballot : int; promised : int }  (* abandoned: a higher ballot is promised *)

(* Leadership of one recovery ballot: collecting promises (phase 1),
   then acceptances (phase 2) of [l_value]. [l_heard] always contains
   this acceptor itself. *)
type led = {
  l_ballot : int;
  l_phase : [ `Promises | `Acks ];
  l_heard : int list;
  l_best : (int * bool) option;  (* highest accepted value among the promises *)
  l_value : bool;  (* the value being proposed in phase 2 *)
}

type state = {
  gid : int;
  idx : int;
  mutable promised : int;  (* highest ballot promised (0 = only the implicit ballot-0 promise) *)
  mutable accepted : (int * bool) option;  (* highest (ballot, decision) accepted *)
  mutable decided : bool option;
  mutable askers : Wire.address list;  (* who sent DECISION-REQ while undecided; kept sorted *)
  mutable round : int;  (* next recovery round to lead *)
  mutable leading : led option;
}

type input =
  | Deliver of { src : Wire.address; payload : Wire.payload }
  | Recover of { promised : int; accepted : (int * bool) option; decided : bool option }
      (* rebuild from the force-written acceptor log after a site reboot
         (fed to a fresh [init]); askers and leadership are volatile and
         come back through re-asking *)

type effect = (never, record, never, event) Types.effect

let init ~gid ~idx =
  { gid; idx; promised = 0; accepted = None; decided = None; askers = []; round = 0; leading = None }

(* An independent state to step on when [st] itself must survive: every
   field holds an immutable value, so a fresh record is a full copy. *)
let copy st = { st with gid = st.gid }

let send st ~dst payload = Send { dst; gid = st.gid; payload }

let peers config st =
  List.filter_map
    (fun k -> if k = st.idx then None else Some (Wire.Acceptor { gid = st.gid; idx = k }))
    (List.init config.n Fun.id)

(* The smallest own-space ballot above both our promise and [floor]. *)
let bump_round config st floor =
  let rec go round = if (round * config.n) + st.idx + 1 > floor then round else go (round + 1) in
  go st.round

(* The register decided: persist, tell the askers (in address order —
   the list is kept sorted so arrival order does not leak into state). *)
let learn st committed =
  if st.decided <> None then []
  else begin
    let answers =
      List.map (fun dst -> send st ~dst (Wire.Decision_resp { committed })) st.askers
    in
    st.decided <- Some committed;
    st.askers <- [];
    st.leading <- None;
    Force_log (R_decided { committed }) :: answers
  end

(* Our own ballot reached a write quorum: the value is chosen. Spread it
   to the peers so a later recovery ballot short-circuits. *)
let choose config st ballot committed =
  let broadcast = List.map (fun dst -> send st ~dst (Wire.Px_decision { committed })) (peers config st) in
  let effs = learn st committed in
  (Emit (Chosen { ballot; committed }) :: broadcast) @ effs

(* Phase 2 of an own ballot: self-accept the value, then solicit a write
   quorum of acceptances (immediate when the quorum is just us —
   backup-TM's single replica). *)
let start_phase2 config st ballot value =
  st.promised <- ballot;
  st.accepted <- Some (ballot, value);
  st.leading <- None;
  let accept = Force_log (R_accepted { ballot; committed = value }) in
  if config.quorum <= 1 then accept :: choose config st ballot value
  else begin
    st.leading <-
      Some { l_ballot = ballot; l_phase = `Acks; l_heard = [ st.idx ]; l_best = None; l_value = value };
    accept
    :: List.map (fun dst -> send st ~dst (Wire.Px_accept { ballot; committed = value })) (peers config st)
  end

(* Become the recovery leader of a fresh ballot: self-promise, then
   solicit a read quorum of promises. *)
let start_recovery config st =
  let round = bump_round config st st.promised in
  let ballot = (round * config.n) + st.idx + 1 in
  st.round <- round + 1;
  st.promised <- ballot;
  let emit = Emit (Recovery_ballot { ballot }) in
  let promise = Force_log (R_promised { ballot }) in
  if config.quorum <= 1 then
    (* The read quorum is just us: free choice unless we hold a value. *)
    let value = match st.accepted with Some (_, v) -> v | None -> false in
    emit :: promise :: start_phase2 config st ballot value
  else begin
    st.leading <-
      Some { l_ballot = ballot; l_phase = `Promises; l_heard = [ st.idx ]; l_best = st.accepted; l_value = false };
    emit :: promise :: List.map (fun dst -> send st ~dst (Wire.Px_query { ballot })) (peers config st)
  end

let handle_deliver config st src payload =
  match payload with
  | Wire.Decision_req -> (
      (* A rebooted leader or an in-doubt participant asks for the
         outcome. Decided: answer. Undecided: remember the asker and
         (unless a ballot of ours is already in flight) lead recovery. *)
      match st.decided with
      | Some committed -> [ send st ~dst:src (Wire.Decision_resp { committed }) ]
      | None ->
          if not (List.exists (Wire.equal_address src) st.askers) then
            st.askers <- List.sort compare (src :: st.askers);
          if st.leading <> None then [] else start_recovery config st)
  | Wire.Px_accept { ballot; committed } -> (
      match st.decided with
      | Some d -> [ send st ~dst:src (Wire.Decision_resp { committed = d }) ]
      | None ->
          if ballot < st.promised then []  (* stale proposer: silence, let it be nacked *)
          else if config.certificates && ballot = 0 && not committed then
            (* Decision certificates, register edition: a fast abort is
               never replicated, so a ballot-0 abort proposal cannot come
               from the honest leader — it is a forgery; drop it. *)
            []
          else if st.accepted = Some (ballot, committed) then
            (* duplicate 2a (a retransmission): re-ack without re-forcing *)
            [ send st ~dst:src (Wire.Px_accepted { ballot; idx = st.idx }) ]
          else if
            config.certificates
            && match st.accepted with Some (b, v) -> b = ballot && v <> committed | None -> false
          then
            (* Conflicting value at the ballot we already accepted: the
               register is write-once per ballot, so an honest proposer
               never re-proposes differently — drop the forgery instead
               of overwriting the accepted value. *)
            []
          else begin
            (* accepting implies promising; any lower-ballot leadership of
               ours can no longer reach a quorum, so abandon it *)
            st.promised <- ballot;
            st.accepted <- Some (ballot, committed);
            st.leading <- None;
            [
              Force_log (R_accepted { ballot; committed });
              send st ~dst:src (Wire.Px_accepted { ballot; idx = st.idx });
            ]
          end)
  | Wire.Px_query { ballot } -> (
      match st.decided with
      | Some d -> [ send st ~dst:src (Wire.Decision_resp { committed = d }) ]
      | None ->
          if ballot <= st.promised then
            (* [promised > ballot] is a nack; [promised = ballot] re-sends
               the promise a duplicated query asked for — idempotent *)
            [
              send st ~dst:src
                (Wire.Px_promise { ballot; promised = st.promised; accepted = st.accepted; idx = st.idx });
            ]
          else begin
            st.promised <- ballot;
            st.leading <- None;
            [
              Force_log (R_promised { ballot });
              send st ~dst:src
                (Wire.Px_promise { ballot; promised = ballot; accepted = st.accepted; idx = st.idx });
            ]
          end)
  | Wire.Px_promise { ballot; promised; accepted; idx } -> (
      match st.leading with
      | Some l when l.l_phase = `Promises && l.l_ballot = ballot ->
          if promised > ballot then begin
            (* nacked: abandon; the next DECISION-REQ re-runs past it *)
            let round = bump_round config st promised in
            st.leading <- None;
            st.round <- round;
            [ Emit (Nacked { ballot; promised }) ]
          end
          else if List.mem idx l.l_heard then []
          else
            let l_best =
              match (accepted, l.l_best) with
              | Some (b, _), Some (b', _) when b <= b' -> l.l_best
              | Some _, _ -> accepted
              | None, _ -> l.l_best
            in
            let l = { l with l_heard = List.sort compare (idx :: l.l_heard); l_best } in
            if List.length l.l_heard >= config.quorum then begin
              (* read quorum: re-propose the highest accepted value, or
                 abort if the quorum never saw one (presumed abort) *)
              let value = match l.l_best with Some (_, v) -> v | None -> false in
              st.leading <- None;
              start_phase2 config st ballot value
            end
            else begin
              st.leading <- Some l;
              []
            end
      | _ -> [] (* stale promise for an abandoned or finished ballot *))
  | Wire.Px_accepted { ballot; idx } -> (
      match st.leading with
      | Some l when l.l_phase = `Acks && l.l_ballot = ballot ->
          if List.mem idx l.l_heard then []
          else
            let l = { l with l_heard = List.sort compare (idx :: l.l_heard) } in
            if List.length l.l_heard >= config.quorum then begin
              st.leading <- None;
              choose config st ballot l.l_value
            end
            else begin
              st.leading <- Some l;
              []
            end
      | _ -> [])
  | Wire.Px_decision { committed } -> learn st committed
  | Wire.Commit_ack | Wire.Rollback_ack | Wire.Decision_resp _ ->
      (* an agent that learned the decision from our DECISION-RESP
         acknowledges to its [src] — nothing for the register to do *)
      []
  | payload ->
      Fmt.failwith "acceptor T%d.%d: unexpected %a" st.gid st.idx Wire.pp_payload payload

let step config st input : effect list =
  match input with
  | Deliver { src; payload } -> handle_deliver config st src payload
  | Recover { promised; accepted; decided } ->
      st.promised <- promised;
      st.accepted <- accepted;
      st.decided <- decided;
      []
