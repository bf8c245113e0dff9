(** The assembled Distributed Transaction Manager (Fig. 1): per-site LDBS
    (database + rigorous LTM + failure injector + 2PC Agent) and a
    coordinator factory. Fully decentralized — the only shared pieces are
    simulation infrastructure. *)

open Hermes_kernel

type site_spec = {
  ltm_config : Hermes_ltm.Ltm_config.t;
  clock : Clock.t;  (** drives this site's serial numbers when it coordinates *)
  failure : Hermes_ltm.Failure.config;
}

val default_site_spec : site_spec

type t

val create :
  engines:Hermes_sim.Engine.t array ->
  rng:Rng.t ->
  net_config:Hermes_net.Network.config ->
  certifier:Config.t ->
  ?obs:Hermes_obs.Obs.t ->
  ?crash_coordinators:bool ->
  ?n_shards:int ->
  site_specs:site_spec array ->
  unit ->
  t
(** Site [i] of the array becomes {!Site.of_int}[ i]. The sites are
    spread over k = [Array.length engines] execution shards, at least one
    and at most one per site: site [i] runs on shard [i mod k], and each
    shard has its own engine, network instance, trace and observability
    context. One shard is the sequential engine. With several, each shard
    may run on its own domain under {!Hermes_sim.Parallel}
    ({!exec_shards}): gid allocation is strided per shard (see
    {!locate}), so {!submit} touches only the coordinating shard's state,
    and {!history} is the deterministic merge of the shards' traces.
    Construction itself is single-threaded, and several shards refuse
    replicated commit protocols.

    The random streams are split from [rng] here, in a fixed order: a
    shard's [net] stream just before its first site's [failure-i]
    stream, suffixed [-x] only when there are several shards.

    [?obs] is threaded into every component — agents, LTMs, the network,
    coordinators — so their decision points emit trace events and record
    histograms. With several shards each shard records into its own
    context, folded into [obs] by {!merge_obs}.

    [?crash_coordinators] (default [false]) makes {!crash_site} also
    crash the coordinators hosted at the site — they reboot from the
    site's {!Hermes_protocol.Coordinator_log} — and enables the agents' in-doubt
    termination protocol (DECISION-REQ inquiries and in-doubt metrics).
    Off, runs are byte-identical to earlier revisions.

    [?n_shards] sizes the initial {!Hermes_placement.Shard_map.static}
    placement (default: one placement shard per site, shard [i] at site
    [i]) — epoch 0, under which every message passes the epoch check and
    runs replay byte-identically with earlier revisions. Placement shards
    partition the keys; they are unrelated to execution shards. *)

val locate : n_exec:int -> Wire.address -> int
(** The execution shard owning an address among [n_exec] execution
    shards: an agent lives on its site's shard; a coordinator on shard
    [(gid - 1) mod n_exec], by the strided gid allocation. Raises
    [Invalid_argument] on an acceptor address: replicated commit
    protocols run on one execution shard, where nothing is routed. *)

val exec_shards : t -> Hermes_sim.Parallel.shard array
(** The execution shards as {!Hermes_sim.Parallel.run} takes them, each
    draining its cross-shard inbox into its own network instance. *)

val n_sites : t -> int
val site_ids : t -> Site.t list
val ltm : t -> Site.t -> Hermes_ltm.Ltm.t
val database : t -> Site.t -> Hermes_store.Database.t
val agent : t -> Site.t -> Agent.t

val coordinator_log : t -> Site.t -> Hermes_protocol.Coordinator_log.t
(** The site's stable coordinator log (participant sets and decisions
    force-written by the coordinators the site hosts). *)

val injector : t -> Site.t -> Hermes_ltm.Failure.t

val networks : t -> Hermes_net.Network.t list
(** Every network instance, one per execution shard (e.g. to sum traffic
    counters or declare all lossy). *)

val submitted : t -> int

val placement : t -> Hermes_placement.Shard_map.t
(** The installed shard map. Agents sample its epoch per input and
    coordinators stamp it on BEGIN/EXEC; clients resolve shard-space
    programs through it immediately before each {!submit}. *)

val submit :
  ?gate:Coordinator.gate ->
  ?shards:int list ->
  t ->
  Program.t ->
  on_done:(Coordinator.outcome -> unit) ->
  int
(** Allocate a gid and start a coordinator at the program's first
    participating site. Returns the gid. [?shards] records which shards
    the transaction touches, letting a later {!reconfigure} hand over
    only the moved shard's prepared state; without it the gid is
    conservatively included in every handover. *)

val reconfigure : t -> shard:int -> to_:Site.t -> unit
(** Install {!Hermes_placement.Shard_map.move}[ ~shard ~to_] as a new
    placement epoch. First the losing site exports the moved shard's
    prepared certification state (serial numbers + current alive
    intervals) and the gainer adopts it as foreign alive-table entries —
    conservatively gating certification there until each gid's decision
    lands — then the new map is installed, so the new epoch never serves
    traffic before the handover. Stale-epoch BEGIN/EXEC messages from
    in-flight rounds are refused WRONG-EPOCH and the rounds abort for
    re-resolution. Moving a shard onto its current owner, or onto a site
    that is not serving (one that has left), is a no-op: nothing is
    handed over and the epoch does not advance. One execution shard
    only. *)

val join : t -> site:Site.t -> unit
(** Install {!Hermes_placement.Shard_map.add_site} as a new placement
    epoch: [site] (re)joins the serving set, owning nothing until a
    {!reconfigure} moves shards onto it. Raises if already serving.
    One execution shard only. *)

val leave : t -> site:Site.t -> unit
(** Install {!Hermes_placement.Shard_map.remove_site} as a new placement
    epoch: [site]'s shards redistribute round-robin over the survivors,
    and each gainer first adopts the leaver's prepared certification
    state for the shards it inherits, exactly like a {!reconfigure}
    handover. Raises on the last serving site. One execution shard only. *)

val load : t -> Site.t -> table:string -> key:int -> value:int -> unit
(** Install an initial row (written by the initializing transaction T_0). *)

val crash_site : ?reboot_delay:int -> t -> Site.t -> unit
(** Site crash: collective abort of every live transaction, loss of all
    volatile agent state, recovery from the Agent log. With
    [reboot_delay = 0] (default) the reboot is instantaneous — the
    paper's idealization. A positive [reboot_delay] keeps the site down
    for that many ticks: the network counts deliveries to it as drops,
    recovery runs when it comes back up, and coordinator retransmissions
    carry the 2PC decisions across the outage. A crash on a site already
    down is ignored.

    When the Dtm was created with [crash_coordinators], the crash also
    takes down every coordinator the site hosts (addresses dark for the
    outage, volatile 2PC state lost); at reboot each rebuilds from the
    site's {!Hermes_protocol.Coordinator_log}, re-driving its logged decision or
    presuming abort. *)

val history : t -> Hermes_history.History.t
(** The trace so far, as a history: with several shards, their traces
    merged by time, same-instant events interleaved by shard index. *)

val merge_obs : t -> unit
(** Fold the shards' own observability contexts into the one given to
    {!create}, once, after the run: registries absorb exactly, trace
    events merge by time. A no-op with one shard, which records straight
    into the caller's context. *)

(** Aggregate LTM/agent statistics across sites. *)
type totals = {
  ltm_committed : int;
  ltm_aborted : int;
  unilateral_aborts : int;
  lock_timeouts : int;
  deadlock_victims : int;
  prepared : int;
  refused_extension : int;
  refused_interval : int;
  refused_dead : int;
  refused_epoch : int;  (** WRONG-EPOCH refusals of stale-placement BEGIN/EXEC *)
  refused_drift : int;  (** PREPAREs refused by the serial-number staleness bound *)
  resubmissions : int;
  commit_retries : int;
  dlu_denials : int;
  agent_log_forces : int;  (** synchronous Agent-log forces paid, all sites *)
  coord_log_forces : int;  (** synchronous Coordinator-log forces paid, all sites *)
  gc_flushes : int;  (** group-commit batch flushes (0 with batching off) *)
  gc_staged : int;  (** records that went through the coordinator batchers *)
}

val totals : t -> totals

val export_metrics : t -> Hermes_obs.Registry.t -> unit
(** Fold the per-site LTM/agent/DLU counters and network totals into a
    registry as [(name, site)] series — the end-of-run complement of the
    live histograms and trace events. Accumulates on repeated export. *)
