(** The experiment suite: the paper has no quantitative evaluation, so
    each experiment operationalizes one of its qualitative claims as a
    measured table (mapping in DESIGN.md §3, commentary in
    EXPERIMENTS.md). *)

module T := Table_fmt
module Registry := Hermes_obs.Registry

(** Shared run parameters for the suite: [seeds] overrides every
    experiment's own default seed count; [metrics] is a registry every
    run's metrics are absorbed into (one dump for a whole sweep); [jobs]
    is the number of domains the seed sweeps fan out over (ACROSS runs);
    [domains] overrides E16's within-run site-parallelism sweep to
    [[1; d]] — the other experiments run every site on one execution
    shard, for byte-identity. Results are byte-identical for any [jobs]:
    runs are independent (each owns its observability context) and their
    registries are absorbed in seed order on the calling domain. *)
type params = {
  seeds : int option;
  metrics : Registry.t option;
  jobs : int;
  domains : int option;
}

val default_params : params
(** [{ seeds = None; metrics = None; jobs = 1; domains = None }] —
    per-experiment defaults, no metrics collection, sequential. *)

val run_all : ?params:params -> unit -> (string * T.t) list
(** Every experiment, as [(short name, table)] — ["e1"] .. ["e19"],
    without the retired ["e9"] (EXPERIMENTS.md keeps its finding). *)

val tables :
  seeds_of:(int -> int) ->
  ?jobs:int ->
  ?metrics:Registry.t ->
  ?domains:int ->
  unit ->
  (string * (unit -> T.t)) list
(** The suite as named thunks, for running a subset: [seeds_of] maps each
    experiment's default seed count to the one to use. Forcing a thunk
    runs that experiment, fanning its seed sweep over [jobs] domains
    (default 1; E1-E3 are cheap and always sequential). [domains]
    replaces E16's domain sweep with [[1; domains]]. *)

val e1_global_view_distortion : ?metrics:Registry.t -> unit -> T.t
(** H1 across certifier variants (paper §3/§4). *)

val e2_local_view_distortion : ?metrics:Registry.t -> unit -> T.t
(** H2: direct-conflict local view distortion (§5.1). *)

val e3_indirect_distortion : ?metrics:Registry.t -> unit -> T.t
(** H3: indirect-conflict local view distortion (§5.1). *)

val e4_overtaking : ?seeds:int -> ?jobs:int -> ?metrics:Registry.t -> unit -> T.t
(** The §5.3 race vs network jitter; extension on/off. *)

val e5_restrictiveness : ?seeds:int -> ?jobs:int -> ?metrics:Registry.t -> unit -> T.t
(** Failure-free abort rates and throughput: 2CM vs ticket vs CGM (§6). *)

val e6_failure_sweep : ?seeds:int -> ?jobs:int -> ?metrics:Registry.t -> unit -> T.t
(** Unilateral-abort sweep with per-step ablations. *)

val e7_clock_drift : ?seeds:int -> ?jobs:int -> ?metrics:Registry.t -> unit -> T.t
(** §5.2: drift causes only unnecessary aborts. *)

val e8_commit_retry : ?seeds:int -> ?jobs:int -> ?metrics:Registry.t -> unit -> T.t
(** Appendix C: commit-certification retry behaviour vs jitter. *)

val e10_heterogeneity : ?seeds:int -> ?jobs:int -> ?metrics:Registry.t -> unit -> T.t
(** Heterogeneous LDBSs (different speeds, deadlock policies, clocks and
    failure behaviours, including site crashes) under one decentralized
    certifier. *)

val e11_crash_recovery : ?seeds:int -> ?jobs:int -> ?metrics:Registry.t -> unit -> T.t
(** Full site crashes with Agent-log recovery: in-doubt subtransactions
    rebuilt by resubmission, decisions retransmitted, duplicates answered
    idempotently. *)

val e12_deadlock_policies : ?seeds:int -> ?jobs:int -> ?metrics:Registry.t -> unit -> T.t
(** Timeout vs detection vs wait-die vs wound-wait local deadlock
    resolution under a hot-key workload; the certifier must stay correct
    over all of them. *)

val e13_unreliable_net : ?seeds:int -> ?jobs:int -> ?metrics:Registry.t -> unit -> T.t
(** Drop/duplication faults plus real reboot windows: the hardened 2PC
    layer (retransmission, set-based vote counting, idempotent replay
    from the Agent log) must keep full 2CM distortion-free, acyclic and
    live on a network the paper assumes away; naive is the ablation. *)

val e14_coordinator_crashes : ?seeds:int -> ?jobs:int -> ?metrics:Registry.t -> unit -> T.t
(** Scheduled crashes also take down the site's coordinators, which
    reboot from the Coordinator log (re-driving the decision or presuming
    abort) while prepared participants run the in-doubt termination
    protocol; measures the in-doubt blocking window. *)

val e15_saturation : ?seeds:int -> ?jobs:int -> ?metrics:Registry.t -> unit -> T.t
(** Open-loop Poisson arrival sweep over increasing offered load with
    group commit off and on: saturation throughput, p99 latency from
    arrival (queueing included) and synchronous log forces per committed
    global; batching must cut forces/commit by an order of magnitude with
    the correctness columns unchanged. *)

val e16_multicore :
  ?seeds:int -> ?domains:int list -> ?metrics:Registry.t -> unit -> T.t
(** Multicore scaling of the conservative windowed engine
    ({!Hermes_workload.Driver.run_windowed}): sites 4/16/64 at fixed
    per-site load, each block swept over [domains] (default
    [[1; 2; 4; 8]]). Columns report committed count, wall-clock seconds,
    wall-clock txns/s, speedup vs the block's [domains = 1] cell, stuck
    runs and a correctness verdict (distortion-free + acyclic). The
    merged history is domain-count-invariant, so every cell of a block
    commits the same transactions. *)

val e18_elastic : ?seeds:int -> ?jobs:int -> ?metrics:Registry.t -> unit -> T.t
(** Elastic placement: online shard moves while the closed-loop workload
    runs, swept over 4/16/64 sites with a static-map baseline against an
    n/2-move churn cell. Each move installs a new placement epoch with
    prepared-state handover; stale-epoch traffic is refused (WRONG-EPOCH)
    and resubmitted against the new map. Columns report commits,
    throughput, p95 latency, wrong-epoch refusals, resubmissions, stuck
    runs and the distortion-free verdict — churn must cost retries, not
    correctness. A third cell per site count exercises membership churn:
    the last site leaves mid-run (shards redistributed over the
    survivors after handover) and rejoins later owning nothing. *)

val e19_adversary : ?seeds:int -> ?jobs:int -> ?metrics:Registry.t -> unit -> T.t
(** The process-fault adversary suite: each {!Hermes_core.Config.adversary}
    misbehaviour (lying agent, equivocating coordinator, stale-clock
    serial numbers) plus the gray-site network fault, run undefended and
    behind its countermeasure (decision certificates, the [max_sn_drift]
    staleness bound, mutual-suspicion timeouts). Columns report commits,
    throughput, p95 latency, distorted runs, drift refusals, suspicion and
    equivocation-detection counters, and the in-doubt p99 — which the
    suspicion timeout must bound for the gray coordinator. *)

val all : ?quick:bool -> unit -> T.t list
(** The tables of {!run_all} without names; [quick] divides each seed
    default by 3 (back-compat convenience). *)
