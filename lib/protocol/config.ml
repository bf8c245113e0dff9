(* Certifier configuration: each certification step of the paper can be
   toggled independently, which is how the ablation experiments (and the
   naive resubmitting agent of [Barker & Özsu]-style systems) are
   expressed. *)

(* How the coordinator's commit/abort decision is made durable.
   [Two_pc] is the paper's protocol: the decision lives in the
   coordinator's own force-written log, so a crashed coordinator blocks
   in-doubt participants until its site reboots.  [Paxos] replicates the
   decision into a register spread over acceptor processes on other
   sites (Gray & Lamport, "Consensus on Transaction Commit"): the leader
   announces COMMIT only after a write quorum of acceptors has accepted
   it, and any in-doubt party can drive a recovery ballot against a read
   quorum, so the decision survives F replica failures with no blocking.
   [backup_tm] is its degenerate F = 0 register (the t2pc ENABLEBTM
   shape): one backup TM on the next site, non-blocking under exactly one
   failure. *)
type commit_proto = Two_pc | Paxos of { f : int }

let backup_tm = Paxos { f = 0 }

(* The process-fault adversary (Zhao, "A Byzantine Fault Tolerant
   Distributed Commit Protocol"): deterministic misbehaviours injected
   inside otherwise-honest machines. Everything defaults off, and with
   every knob at zero the machines emit exactly the honest effect
   sequences — the golden digests depend on it.

   - [lying_sites]: agents at these sites vote READY *without* preparing
     (no force-written prepare record, no certification, no held-open
     locks) and answer any later replay or DECISION-REQ-driven decision
     with "never prepared"; their local commit silently never happens.
   - [equivocate]: coordinators send COMMIT to the first half of the
     participant list and a bare ROLLBACK to the rest (and keep the
     split on retransmission).
   - [sn_drift]: even-gid coordinators draw serial numbers from a clock
     [sn_drift] ticks in the past — the stale-clock assignment the
     [max_sn_drift] bound exists to reject. *)
type adversary = { lying_sites : int list; equivocate : bool; sn_drift : int }

let no_adversary = { lying_sites = []; equivocate = false; sn_drift = 0 }

type t = {
  prepare_certification : bool;  (* §4.2: alive time intersection rule *)
  certification_extension : bool;  (* §5.3: refuse PREPARE behind a bigger committed SN *)
  commit_certification : bool;  (* §5.2: release local commits in SN order *)
  bind_data : bool;  (* register bound data for DLU enforcement *)
  resubmit_backoff : int;  (* ticks to wait before restarting a failed resubmission *)
  sn_at_begin : bool;  (* ticket baseline: draw the SN at BEGIN instead of at global commit *)
  decision_inquiry_interval : int;  (* agent: ticks an in-doubt (prepared, undecided)
                                       subtransaction waits before asking the coordinator (and,
                                       under a replicated commit protocol, the acceptors) for
                                       the outcome (DECISION-REQ); armed whenever the
                                       termination protocol is on (coordinator crashes
                                       enabled), reliable network or not — a crashed
                                       coordinator loses in-flight decisions even when no
                                       message is ever dropped *)
  group_commit_window : int;  (* group commit: ticks a staged log record may wait for
                                 companions before the batch is force-written; 0 disables
                                 group commit entirely (every force is immediate, and the
                                 machines emit exactly the historical effect sequences) *)
  max_batch : int;  (* group commit: force the batch as soon as this many records
                       (and, at the agent, buffered PREPAREs) are staged, even if the
                       window has not elapsed *)
  commit_proto : commit_proto;  (* how the decision is made durable; [Two_pc] (the default)
                                   keeps every pre-replication run byte-identical *)
  adversary : adversary;  (* injected process faults; [no_adversary] keeps runs honest *)
  decision_certificates : bool;  (* countermeasure: READY carries its PREPARE's serial number
                                    and COMMIT carries the vote set; agents, coordinators and
                                    the Paxos register reject bare (uncertified) votes and
                                    decisions, making vote-denial and equivocation detectable
                                    at the receiver *)
  max_sn_drift : int option;  (* countermeasure: refuse a PREPARE whose serial number is more
                                 than this many ticks behind the agent's clock; [None] = off *)
  suspicion_timeout : int;  (* countermeasure against gray (alive-but-slow) coordinators:
                               ticks an in-doubt participant waits before escalating to the
                               inquiry/recovery path even on runs where the ordinary
                               termination protocol is not armed; 0 = off *)
}

let group_commit t = t.group_commit_window > 0

(* Is the agent at (integer) site id [site] a configured liar? *)
let lying t ~site = List.mem site t.adversary.lying_sites

(* Replica-set geometry of the decision register.  2PC has no acceptors
   (the coordinator log is the register); Paxos Commit has 2f+1 with
   matching f+1 read/write quorums, so any read quorum intersects any
   write quorum — backup-TM's one acceptor and quorum of one at f = 0. *)
let n_acceptors t = match t.commit_proto with Two_pc -> 0 | Paxos { f } -> (2 * f) + 1
let replica_quorum t = match t.commit_proto with Two_pc -> 0 | Paxos { f } -> f + 1

let pp_commit_proto ppf = function
  | Two_pc -> Fmt.string ppf "2pc"
  | Paxos { f = 0 } -> Fmt.string ppf "backup-tm"
  | Paxos { f } -> Fmt.pf ppf "paxos(f=%d)" f

(* The full 2CM certifier as the paper specifies it. *)
let full =
  {
    prepare_certification = true;
    certification_extension = true;
    commit_certification = true;
    bind_data = true;
    resubmit_backoff = 1_000;
    sn_at_begin = false;
    decision_inquiry_interval = 60_000;
    group_commit_window = 0;
    max_batch = 8;
    commit_proto = Two_pc;
    adversary = no_adversary;
    decision_certificates = false;
    max_sn_drift = None;
    suspicion_timeout = 0;
  }

(* The naive 2PC agent: simulated prepared state and resubmission, but no
   certification at all — the straw man that exhibits both global and
   local view distortions under failures. *)
let naive =
  {
    full with
    prepare_certification = false;
    certification_extension = false;
    commit_certification = false;
    bind_data = false;
  }

(* The predefined-total-order ("ticket") scheme the paper argues against
   in §5.2: serial numbers drawn at BEGIN, so *all* global transactions
   must commit in begin order whether they conflict or not. *)
let ticket = { full with sn_at_begin = true }

(* Group commit: stage READY and decision records and force them once per
   batch (window- and size-bounded), amortizing the log force and the LTM
   round-trip over a vector of gids. A 10 ms window is wide enough to
   fill batches at a few hundred transactions per second; latency-
   sensitive setups should shrink it. *)
let grouped = { full with group_commit_window = 10_000; max_batch = 32 }

(* Named ablations for the experiment harness. *)
let without_extension = { full with certification_extension = false }
let without_commit_certification = { full with commit_certification = false }
let without_prepare_certification = { full with prepare_certification = false }
let without_dlu = { full with bind_data = false }

let pp ppf t =
  Fmt.pf ppf "{prep=%b ext=%b commit=%b dlu=%b ticket=%b}" t.prepare_certification
    t.certification_extension t.commit_certification t.bind_data t.sn_at_begin
