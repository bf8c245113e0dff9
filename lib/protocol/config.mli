(** Certifier configuration.

    Every certification step of the paper is an independent knob, which
    is how the ablation experiments — and the naive resubmitting agent
    the paper argues against — are expressed.  So are the timers some
    run varies (resubmission backoff, decision inquiry, group commit,
    suspicion), the commit protocol, the adversary and its
    countermeasures.  The timers no run varies (alive checks, commit
    retries, command-reply timeouts, decision and PREPARE
    retransmission) are constants of {!Agent_sm} and {!Coordinator_sm}.
    A configuration is pure data: the same record drives the protocol
    machines, the effectful adapters and the {!Explore} model checker. *)

type commit_proto =
  | Two_pc
      (** The paper's protocol: the decision lives only in the
          coordinator's force-written log, so a crashed coordinator
          blocks in-doubt participants until its site reboots. *)
  | Paxos of { f : int }
      (** Gray & Lamport's Paxos Commit: the decision is a
          Paxos-replicated register over [2f+1] acceptors with [f+1]
          read/write quorums — commit survives [f] replica failures with
          zero blocking. [2f+1] is at most {!Hermes_kernel.Wire.max_acceptors}
          (so [f <= 7]): the network packs an acceptor's index into four
          bits. *)

val backup_tm : commit_proto
(** [Paxos { f = 0 }]: one backup acceptor on the next site (the t2pc
    [ENABLEBTM] exemplar), the degenerate single-replica register,
    non-blocking under exactly one failure. Printed ["backup-tm"]. *)

(** The process-fault adversary: deterministic misbehaviours injected
    inside otherwise-honest machines.  With every knob at its
    {!no_adversary} value the machines emit exactly the honest effect
    sequences — the golden digests depend on it. *)
type adversary = {
  lying_sites : int list;
      (** agents at these (integer) sites vote READY without preparing
          — no force-written prepare record, no certification — answer
          later replays with "never prepared", and silently drop their
          local commit *)
  equivocate : bool;
      (** coordinators send COMMIT to the first half of the participant
          list and a bare ROLLBACK to the rest, keeping the split on
          retransmission *)
  sn_drift : int;
      (** even-gid coordinators draw serial numbers from a clock this
          many ticks in the past — the stale-clock assignment
          [max_sn_drift] exists to reject *)
}

val no_adversary : adversary

type t = {
  prepare_certification : bool;
      (** §4.2: refuse a PREPARE whose alive interval does not intersect
          every concurrently prepared subtransaction's interval. *)
  certification_extension : bool;
      (** §5.3: additionally refuse a PREPARE that arrives behind an
          already-committed larger serial number. *)
  commit_certification : bool;
      (** §5.2 / Appendix C: release local commits in global serial-number
          order (the min-SN rule). *)
  bind_data : bool;  (** Register bound data for DLU enforcement. *)
  resubmit_backoff : int;
      (** Ticks to wait before restarting a failed resubmission. *)
  sn_at_begin : bool;
      (** Ticket baseline: draw the serial number at BEGIN instead of at
          global commit, forcing commit order = begin order. *)
  decision_inquiry_interval : int;
      (** Agent: ticks an in-doubt (prepared, undecided) subtransaction
          waits before asking the coordinator — and, under a replicated
          commit protocol, the acceptors — for the outcome
          (DECISION-REQ). Armed whenever the termination protocol is on
          (coordinator crashes enabled), on reliable networks too: a
          coordinator crash loses in-flight decisions even when no
          message is ever dropped. *)
  group_commit_window : int;
      (** Group commit: ticks a staged log record may wait for companions
          before the batch is force-written.  [0] disables group commit:
          every force is immediate and the machines emit exactly the
          historical (pre-group-commit) effect sequences, byte-identical
          at a fixed seed.  When positive, the agent buffers incoming
          PREPAREs and stages READY / decision records, forcing them once
          per batch ({!Types.effect}, [Force_batch]), and the coordinator
          stages its records for the per-site batcher
          ({!Types.effect}, [Stage_log]). *)
  max_batch : int;
      (** Group commit: force the batch as soon as this many records
          (and, at the agent, buffered PREPAREs) are staged, even if
          [group_commit_window] has not elapsed. *)
  commit_proto : commit_proto;
      (** How the commit/abort decision is made durable. [Two_pc] (the
          default everywhere) keeps every pre-replication run
          byte-identical. *)
  adversary : adversary;
      (** Injected process faults; {!no_adversary} keeps runs honest. *)
  decision_certificates : bool;
      (** Countermeasure: READY carries its PREPARE's serial number and
          COMMIT carries the vote set; agents, coordinators and the
          Paxos register reject bare (uncertified) votes and decisions,
          making vote-denial and equivocation detectable at the
          receiver. *)
  max_sn_drift : int option;
      (** Countermeasure: [Some d] refuses a PREPARE whose serial number
          is more than [d] ticks behind the agent's clock; [None] (the
          default) refuses none. *)
  suspicion_timeout : int;
      (** Countermeasure against gray (alive-but-slow) coordinators:
          ticks an in-doubt participant waits before escalating to the
          inquiry/recovery path even on runs where the ordinary
          termination protocol is not armed; [0] = off. *)
}

val group_commit : t -> bool
(** [group_commit t] is [t.group_commit_window > 0]: whether staged
    (batched) forcing is in effect. *)

val lying : t -> site:int -> bool
(** Is the agent at (integer) site id [site] a configured liar? *)

val n_acceptors : t -> int
(** Acceptors of the decision register: 0 for {!Two_pc}, [2f+1] for
    {!Paxos} (1 for {!backup_tm}). *)

val replica_quorum : t -> int
(** Read = write quorum of the register: 0 / 1 / [f+1]. Any read quorum
    intersects any write quorum, which is what makes the register
    write-once. *)

val pp_commit_proto : commit_proto Fmt.t

val full : t
(** The full 2CM certifier as the paper specifies it (group commit off). *)

val naive : t
(** The naive 2PC agent: simulated prepared state and resubmission but no
    certification at all — the straw man that exhibits both global and
    local view distortions under failures. *)

val ticket : t
(** The predefined-total-order ("ticket") scheme the paper argues against
    in §5.2: serial numbers drawn at BEGIN. *)

val grouped : t
(** {!full} with group commit enabled (10 ms window, batches of 32):
    READY and decision records are staged and force-written once per
    batch, and PREPARE/COMMIT certification is vectorized over the
    batch. *)

val without_extension : t
val without_commit_certification : t
val without_prepare_certification : t
val without_dlu : t

val pp : t Fmt.t
