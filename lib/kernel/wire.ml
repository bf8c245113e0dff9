(* Wire vocabulary of the distributed transaction manager.

   The 2PC vocabulary is exactly the paper's (§2): the Coordinator sends
   BEGIN, data-manipulation commands, PREPARE and COMMIT/ROLLBACK; the
   Participant (a 2PC Agent) answers READY or REFUSE to PREPARE and
   acknowledges decisions with COMMIT-ACK/ROLLBACK-ACK. Command submission
   and results ride the same network.

   Lives in the kernel so the pure protocol machines (hermes.protocol)
   and the simulated network (hermes.net) speak the same wire types
   without depending on each other. *)

type address = Coordinator of int | Agent of Site.t | Acceptor of { gid : int; idx : int }

let pp_address ppf = function
  | Coordinator gid -> Fmt.pf ppf "coord(T%d)" gid
  | Agent s -> Fmt.pf ppf "agent(%a)" Site.pp s
  | Acceptor { gid; idx } -> Fmt.pf ppf "acceptor(T%d.%d)" gid idx

let equal_address a b =
  match (a, b) with
  | Coordinator x, Coordinator y -> Int.equal x y
  | Agent x, Agent y -> Site.equal x y
  | Acceptor x, Acceptor y -> Int.equal x.gid y.gid && Int.equal x.idx y.idx
  | (Coordinator _ | Agent _ | Acceptor _), _ -> false

(* An address packed into one int, for the network's int-keyed tables:
   the constructor in the low two bits, its payload above them. An
   acceptor's payload is its gid above its index. Every key is below
   2^31, so two of them pack into one link key. *)
let payload_bits = 29
let acceptor_index_bits = 4
let max_acceptors = 1 lsl acceptor_index_bits

let out_of_range a = invalid_arg (Fmt.str "Wire.address_key: %a out of range" pp_address a)

let address_key a =
  match a with
  | Coordinator gid -> if gid lsr payload_bits <> 0 then out_of_range a else gid lsl 2
  | Agent s ->
      let s = Site.to_int s in
      if s lsr payload_bits <> 0 then out_of_range a else (s lsl 2) lor 1
  | Acceptor { gid; idx } ->
      if gid lsr (payload_bits - acceptor_index_bits) <> 0 || idx lsr acceptor_index_bits <> 0 then
        out_of_range a
      else (((gid lsl acceptor_index_bits) lor idx) lsl 2) lor 2

(* The source above and source xor destination below: both halves are
   below 2^31, so the pair comes back out (the destination is the low
   half xor the source), and both endpoints reach the low bits a table
   hashes from. *)
let link_key ~src ~dst = (src lsl 31) lor (src lxor dst)

(* Why a Participant refused PREPARE (or a scheduler refused service). *)
type refusal =
  | Extension_refused  (* an "older" (bigger-SN) subtransaction already committed: §5.3 *)
  | Interval_refused  (* alive time intersection failed: §4.2 *)
  | Dead_refused  (* the subtransaction was unilaterally aborted: CI(2) *)
  | Scheduler_refused of string  (* baseline schedulers (CGM, ticket order) *)
  | Wrong_epoch  (* the message's placement epoch is behind the agent's installed map *)
  | Drift_refused  (* the PREPARE's serial number is stale beyond the drift bound *)
  | Uncertified_refused  (* a bare vote/decision where a certificate was required *)

let pp_refusal ppf = function
  | Extension_refused -> Fmt.string ppf "prepare-out-of-order"
  | Interval_refused -> Fmt.string ppf "alive-interval"
  | Dead_refused -> Fmt.string ppf "unilaterally-aborted"
  | Scheduler_refused s -> Fmt.pf ppf "scheduler(%s)" s
  | Wrong_epoch -> Fmt.string ppf "wrong-epoch"
  | Drift_refused -> Fmt.string ppf "sn-drift"
  | Uncertified_refused -> Fmt.string ppf "uncertified"

type payload =
  | Begin of { epoch : int }
      (* carries the coordinator's placement epoch; 0 = the static map *)
  | Exec of { step : int; cmd : Command.t; epoch : int }
  | Exec_ok of { step : int; result : Command.result }
  | Exec_failed of { step : int; reason : string }
  | Prepare of Sn.t
  | Ready
  | Ready_certified of { sn : Sn.t }
      (* the vote carries the PREPARE's serial number it answers — the
         prepare certificate. Unforgeable by fiat: an adversarial agent
         only ever sends the bare [Ready]. *)
  | Refuse of refusal
  | Commit
  | Commit_certified of { voters : Site.t list }
      (* the decision carries the vote set it was derived from — the
         decision certificate. Unforgeable by fiat: an equivocating
         coordinator can only send certificates for decisions its durable
         log actually holds, so its forged branch is always bare. *)
  | Rollback
  | Rollback_certified
  | Commit_ack
  | Rollback_ack
  | Decision_req  (* termination protocol: an in-doubt participant asks for the outcome *)
  | Decision_resp of { committed : bool }
  (* Paxos Commit (Gray & Lamport): the decision register's ballot
     traffic between the leader (the coordinator) and its acceptors.
     Ballot 0 is the leader's fast path; recovery ballots are run by
     acceptors prodded with DECISION-REQ and are spread over disjoint
     ballot spaces (round * n + idx + 1). *)
  | Px_accept of { ballot : int; committed : bool }  (* phase 2a: accept this decision *)
  | Px_accepted of { ballot : int; idx : int }  (* phase 2b: acceptor [idx] accepted *)
  | Px_query of { ballot : int }  (* phase 1a: recovery leader solicits promises *)
  | Px_promise of { ballot : int; promised : int; accepted : (int * bool) option; idx : int }
      (* phase 1b: promise ([promised = ballot]) or nack ([promised > ballot]),
         carrying the highest (ballot, decision) the acceptor has accepted *)
  | Px_decision of { committed : bool }  (* learn: the register's chosen value *)

(* Epoch 0 (the static map) prints exactly as before the placement layer
   existed — the golden trace digests depend on it. *)
let pp_payload ppf = function
  | Begin { epoch = 0 } -> Fmt.string ppf "BEGIN"
  | Begin { epoch } -> Fmt.pf ppf "BEGIN @e%d" epoch
  | Exec { step; cmd; epoch = 0 } -> Fmt.pf ppf "EXEC #%d %a" step Command.pp cmd
  | Exec { step; cmd; epoch } -> Fmt.pf ppf "EXEC @e%d #%d %a" epoch step Command.pp cmd
  | Exec_ok { step; result } -> Fmt.pf ppf "OK #%d %a" step Command.pp_result result
  | Exec_failed { step; reason } -> Fmt.pf ppf "FAILED #%d %s" step reason
  | Prepare sn -> Fmt.pf ppf "PREPARE sn=%a" Sn.pp sn
  | Ready -> Fmt.string ppf "READY"
  | Ready_certified { sn } -> Fmt.pf ppf "READY cert(sn=%a)" Sn.pp sn
  | Refuse r -> Fmt.pf ppf "REFUSE %a" pp_refusal r
  | Commit -> Fmt.string ppf "COMMIT"
  | Commit_certified { voters } ->
      Fmt.pf ppf "COMMIT cert(%a)" (Fmt.list ~sep:Fmt.comma Site.pp) voters
  | Rollback -> Fmt.string ppf "ROLLBACK"
  | Rollback_certified -> Fmt.string ppf "ROLLBACK cert"
  | Commit_ack -> Fmt.string ppf "COMMIT-ACK"
  | Rollback_ack -> Fmt.string ppf "ROLLBACK-ACK"
  | Decision_req -> Fmt.string ppf "DECISION-REQ"
  | Decision_resp { committed } ->
      Fmt.pf ppf "DECISION-RESP %s" (if committed then "commit" else "rollback")
  | Px_accept { ballot; committed } ->
      Fmt.pf ppf "PX-ACCEPT b=%d %s" ballot (if committed then "commit" else "rollback")
  | Px_accepted { ballot; idx } -> Fmt.pf ppf "PX-ACCEPTED b=%d a%d" ballot idx
  | Px_query { ballot } -> Fmt.pf ppf "PX-QUERY b=%d" ballot
  | Px_promise { ballot; promised; accepted; idx } ->
      Fmt.pf ppf "PX-PROMISE b=%d promised=%d a%d%a" ballot promised idx
        (Fmt.option (fun ppf (b, c) ->
             Fmt.pf ppf " accepted=(%d,%s)" b (if c then "commit" else "rollback")))
        accepted
  | Px_decision { committed } ->
      Fmt.pf ppf "PX-DECISION %s" (if committed then "commit" else "rollback")

type t = { src : address; dst : address; gid : int; payload : payload }

let pp ppf m =
  Fmt.pf ppf "%a -> %a [T%d] %a" pp_address m.src pp_address m.dst m.gid pp_payload m.payload
