(** Per-site host for the Paxos Commit decision register's acceptors.

    Instance [idx] of transaction [gid]'s register is placed at site
    [(gid + idx) mod n_sites] — the stride starts one past the leader's
    site, so even backup-TM's single acceptor (F = 1 degenerate case)
    never shares the coordinator's failure domain. The acceptor state
    machines ({!Hermes_protocol.Paxos_coordinator_sm}) are timerless, so
    this adapter interprets only [Send], [Force_log] and [Emit]; the
    force-written acceptor log (promised ballot, accepted value,
    decision) is embedded here and survives {!crash}/{!recover}. *)

open Hermes_kernel

type t

val create :
  site:Site.t ->
  engine:Hermes_sim.Engine.t ->
  net:Hermes_net.Network.t ->
  ?obs:Hermes_obs.Obs.t ->
  config:Config.t ->
  unit ->
  t

val host : t -> gid:int -> idx:int -> unit
(** Create acceptor instance [idx] of [gid]'s register at this site and
    register its network address. Must run before any message is sent to
    the address (the network fails fast on unknown handlers). *)

val crash : t -> unit
(** The site crashed: every hosted instance loses its volatile state
    (leadership, pending askers). The stable log survives; keep the
    addresses down on the network for the outage. Constant time: an
    instance is wiped when its next input arrives. *)

val recover : t -> unit
(** Reboot: replay every hosted instance from its force-written log.
    Constant time, like {!crash}: an instance replays at its next input,
    which sees the same state an eager replay would have left. *)

val force_writes : t -> int
(** Total force-writes to the embedded acceptor log. *)

val n_hosted : t -> int
