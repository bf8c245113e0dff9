(** The 2PC Agent (2PCA) with the Certifier algorithms — the paper's core
    contribution. One agent per site, attached to that site's LTM; it
    plays the 2PC Participant, simulates the prepared state by keeping the
    local subtransaction open, resubmits from the Agent log after
    unilateral aborts, and runs the three Certifier algorithms of the
    Appendix: the alive check (A), the extended prepare certification (B)
    and the commit certification (C). *)

open Hermes_kernel

type t

type stats = {
  mutable prepared : int;
  mutable refused_extension : int;  (** PREPARE behind a bigger committed SN (§5.3) *)
  mutable refused_interval : int;  (** alive-interval intersection failures (§4.2) *)
  mutable refused_dead : int;  (** subtransaction unilaterally aborted before prepare (CI 2) *)
  mutable refused_epoch : int;  (** BEGIN/EXEC stamped with a superseded placement epoch *)
  mutable refused_drift : int;  (** PREPAREs rejected by the SN staleness bound *)
  mutable resubmissions : int;
  mutable commit_retries : int;
  mutable local_commits : int;
  mutable rollbacks : int;
  mutable crashes : int;
  mutable recovered : int;  (** in-doubt subtransactions rebuilt from the log *)
}

val create :
  site:Site.t ->
  engine:Hermes_sim.Engine.t ->
  ltm:Hermes_ltm.Ltm.t ->
  net:Hermes_net.Network.t ->
  trace:Hermes_ltm.Trace.t ->
  ?obs:Hermes_obs.Obs.t ->
  ?termination:bool ->
  ?epoch:(unit -> int) ->
  config:Config.t ->
  unit ->
  t
(** [?obs] threads the observability context through: certifier decision
    points emit {!Hermes_obs.Tracer} events and the decision-to-commit
    delay is recorded in an [agent.commit_delay] histogram per site.

    [?termination] (default [false]) engages the in-doubt termination
    protocol: while a prepared subtransaction has no decision, an
    inquiry timer periodically sends DECISION-REQ to the coordinator
    (or, under a replicated commit protocol, round-robin to the decision
    register's acceptors), and the blocking window is measured in an
    [agent.in_doubt] gauge plus an [agent.in_doubt_time] histogram.
    The timer arms on any run with coordinator crashes enabled — a
    crash strands in-doubt participants on a perfectly reliable network
    too, so it must not additionally require a lossy one.
    Enabled by {!Dtm} when coordinator crashes are enabled — off, the
    agent arms no extra timers and exports no extra metrics, keeping
    fault-free and PR 3-era runs byte-identical.

    [?epoch] samples the installed placement epoch per input (the {!Dtm}
    owns the shard map); BEGIN/EXEC messages stamped with a different
    epoch are refused WRONG-EPOCH. Defaults to constantly 0 — the static
    map, under which the check never fires. *)

val attach : t -> unit
(** Register the agent's message handler with the network. *)

val address : t -> Wire.address
val stats : t -> stats
val alive_table : t -> Hermes_protocol.Alive_table.t
val agent_log : t -> Hermes_protocol.Agent_log.t
val n_prepared : t -> int

val flush_pending : t -> bool
(** Group commit: whether the machine holds staged-but-unforced records
    or buffered PREPAREs — a quiesced run must report [false]. *)

val crash : t -> unit
(** A site crash: every live transaction at the LTM is collectively
    aborted (paper §1's "collective abort") and all volatile agent state
    is lost; only the {!Hermes_protocol.Agent_log} survives. Follow with {!recover}. *)

val recover : t -> unit
(** Rebuild every in-doubt subtransaction from the log by resubmission;
    decisions already forced to the log are redone, and coordinators'
    retransmitted decisions are answered idempotently. *)

(** {2 Shard handover (online reconfiguration)}

    Driven by {!Dtm.reconfigure} around a shard move: the losing site
    {!export_handover}s the alive-table state (serial number + current
    alive interval) of the moved shard's prepared subtransactions, the
    gaining site {!adopt_handover}s it {e before} the new epoch serves
    traffic, and releases each foreign entry with {!drop_foreign} once
    that gid's global decision lands. Foreign entries participate in
    interval-intersection and min-SN commit certification exactly like
    native ones, conservatively gating new work at the gainer. *)

val export_handover : t -> gids:int list -> Hermes_protocol.Agent_sm.handover_entry list
val adopt_handover : t -> Hermes_protocol.Agent_sm.handover_entry list -> unit
val drop_foreign : t -> gid:int -> unit
