(** The Coordinator (paper §2): submits a global transaction's commands
    one by one to the participating sites' agents, then drives standard
    two-phase commit. The serial number (§5.2) is drawn from the
    coordinating site's clock at global-commit time (or at BEGIN for the
    ticket baseline) and travels in the PREPARE messages. *)

open Hermes_kernel

type reason =
  | Exec_failed of Site.t * string
  | Refused of Site.t * Wire.refusal
  | Gate_refused of string  (** CGM gave up on the commit: its global-lock timeout fired *)
  | Presumed_abort
      (** coordinator crash recovery found no decision record for the
          round and terminated it by presuming abort *)
  | Register_abort
      (** replicated commit: a recovery ballot of the decision register
          chose abort and this coordinator adopted it *)

val pp_reason : reason Fmt.t

type outcome = Committed | Aborted of reason

val pp_outcome : outcome Fmt.t

type gate = gid:int -> sites:Site.t list -> proceed:(unit -> unit) -> unit
(** A commit gate sits between execution and the PREPARE phase and calls
    [proceed] when the round may go on; baseline schedulers (the CGM
    commit graph) hook in here. *)

val open_gate : gate
(** The default gate: proceed immediately. *)

type t

val start :
  ?gate:gate ->
  ?obs:Hermes_obs.Obs.t ->
  ?log:Hermes_protocol.Coordinator_log.t ->
  ?batcher:Group_commit.t ->
  ?epoch:int ->
  gid:int ->
  site:Site.t ->
  engine:Hermes_sim.Engine.t ->
  net:Hermes_net.Network.t ->
  trace:Hermes_ltm.Trace.t ->
  config:Config.t ->
  sn_gen:(unit -> Sn.t) ->
  program:Program.t ->
  on_done:(outcome -> unit) ->
  unit ->
  t
(** Registers with the network, sends BEGIN to each participant, and
    starts executing; [on_done] fires after all COMMIT-ACKs or
    ROLLBACK-ACKs. With [log], the machine's force-written records
    (participant set, decision) go to that stable log, making the round
    recoverable across {!crash}/{!recover}. With [batcher] (group
    commit), staged records join the site's shared batch and the rest of
    the staging step is withheld until the batch force-writes; a crash
    in between voids both. [?epoch] (default 0) is the placement epoch
    stamped on every BEGIN/EXEC this round sends; agents holding a
    different installed epoch refuse them WRONG-EPOCH and the round
    aborts for re-resolution. *)

val retired_reply :
  log:Hermes_protocol.Coordinator_log.t -> gid:int -> Wire.t -> Hermes_protocol.Coordinator_sm.effect list option
(** What round [gid]'s finished machine would do with the message, from
    the decision in [log] alone ({!Hermes_protocol.Coordinator_sm.finished_reply}):
    answer a DECISION-REQ, swallow a stray agent reply or register
    message. [None] when the machine would fail on the message, or when
    [log] holds no decision for [gid]. *)

val answer_retired :
  engine:Hermes_sim.Engine.t ->
  net:Hermes_net.Network.t ->
  log:Hermes_protocol.Coordinator_log.t ->
  gid:int ->
  Wire.t ->
  bool
(** Stand in for round [gid] after its coordinator left the network:
    interpret {!retired_reply} on [net], sending from the round's
    address, and return [true]; [false] where it is [None]. *)

val crash : t -> unit
(** The coordinating site crashed: volatile 2PC state is lost and the
    armed timers are silenced. The handler stays registered — mark the
    address down on the network for the outage. *)

val recover : t -> unit
(** Reboot: rebuild from the stable log. A logged decision is re-driven
    until every participant acknowledges; an undecided entry is presumed
    aborted (ROLLBACK broadcast). No-op for finished rounds or when
    [start] was given no log. *)

val finished : t -> bool
(** The decision is made and every participant acknowledged it. *)

val gid : t -> int
val coordinating_site : t -> Site.t

val latency : t -> int
(** Submission-to-decision ticks (valid once finished). *)

val retransmissions : t -> int
(** Decision retransmission rounds performed (crashed participants). *)
