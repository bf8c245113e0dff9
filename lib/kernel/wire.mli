(** Messages of the DTM — the paper's 2PC vocabulary (§2): BEGIN, command
    submission, PREPARE, READY/REFUSE, COMMIT/ROLLBACK and their ACKs.

    Kernel-resident so the pure protocol layer and the simulated network
    use the same wire types without depending on each other. *)

type address =
  | Coordinator of int
  | Agent of Site.t
  | Acceptor of { gid : int; idx : int }
      (** replicated-commit protocols: acceptor [idx] of transaction
          [gid]'s decision register *)

val pp_address : address Fmt.t
val equal_address : address -> address -> bool

val address_key : address -> int
(** [address] packed into one int below [2^31], injectively: the
    constructor in the low two bits, the payload above. A coordinator's
    gid and an agent's site must be below [2^29]; an acceptor's gid below
    [2^25] and its index below {!max_acceptors}. Raises
    [Invalid_argument] on anything outside those ranges. *)

val max_acceptors : int
(** 16: the acceptors per gid that {!address_key} can tell apart. *)

val link_key : src:int -> dst:int -> int
(** The (source, destination) pair of two {!address_key}s packed into
    one non-negative int, injectively. *)

(** Why a Participant refused PREPARE (or a baseline scheduler refused
    service). *)
type refusal =
  | Extension_refused  (** a bigger-SN subtransaction already committed (§5.3) *)
  | Interval_refused  (** alive time intersection failed (§4.2) *)
  | Dead_refused  (** the subtransaction was unilaterally aborted (CI 2) *)
  | Scheduler_refused of string  (** baseline schedulers *)
  | Wrong_epoch
      (** the message carried a placement epoch behind the agent's
          installed shard map; the client must re-resolve and resubmit *)
  | Drift_refused
      (** the PREPARE's serial number is stale beyond the configured
          drift bound *)
  | Uncertified_refused
      (** a bare vote or decision arrived where a certificate was
          required *)

val pp_refusal : refusal Fmt.t

type payload =
  | Begin of { epoch : int }
      (** [epoch] is the coordinator's placement epoch; 0 = static map *)
  | Exec of { step : int; cmd : Command.t; epoch : int }
      (** [step] is the per-site command index, so a duplicated EXEC (or
          its reply) can be recognized and ignored *)
  | Exec_ok of { step : int; result : Command.result }
  | Exec_failed of { step : int; reason : string }
  | Prepare of Sn.t
  | Ready
  | Ready_certified of { sn : Sn.t }
      (** the vote carries the serial number of the PREPARE it answers —
          the prepare certificate; unforgeable by fiat (an adversarial
          agent only ever sends bare [Ready]) *)
  | Refuse of refusal
  | Commit
  | Commit_certified of { voters : Site.t list }
      (** the decision carries the vote set it was derived from — the
          decision certificate; unforgeable by fiat (an equivocating
          coordinator's forged branch is always bare) *)
  | Rollback
  | Rollback_certified
  | Commit_ack
  | Rollback_ack
  | Decision_req
      (** termination protocol: an in-doubt participant asks the
          coordinator for the outcome of its round *)
  | Decision_resp of { committed : bool }
  | Px_accept of { ballot : int; committed : bool }
      (** Paxos Commit phase 2a: a (leader or recovery) proposer asks an
          acceptor to accept this decision at [ballot] *)
  | Px_accepted of { ballot : int; idx : int }  (** phase 2b *)
  | Px_query of { ballot : int }  (** recovery phase 1a *)
  | Px_promise of { ballot : int; promised : int; accepted : (int * bool) option; idx : int }
      (** recovery phase 1b: a promise when [promised = ballot], a nack
          when [promised > ballot]; carries the highest accepted
          (ballot, decision), which the recovery leader must re-propose *)
  | Px_decision of { committed : bool }
      (** learn: the register's chosen value, acceptor-to-acceptor *)

val pp_payload : payload Fmt.t

type t = { src : address; dst : address; gid : int; payload : payload }

val pp : t Fmt.t
