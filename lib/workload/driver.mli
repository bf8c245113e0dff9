(** The workload driver: global traffic enters by the spec's arrival
    discipline — a {!Spec.Closed} client population working off the quota,
    or {!Spec.Open} Poisson arrivals with queueing past the in-service
    cap — while local clients run at every site; one [run] produces one
    measured, deterministic data point. *)

open Hermes_kernel

type protocol =
  | Two_pca of Hermes_core.Config.t
      (** the paper's DTM, or an ablation/naive/ticket variant of it *)
  | Cgm_baseline of Hermes_baselines.Cgm.granularity
      (** the CGM baseline, with global locks at this granularity *)

val protocol_name : protocol -> string

type setup = {
  spec : Spec.t;
  protocol : protocol;
  failure : Hermes_ltm.Failure.config;
  net : Hermes_net.Network.config;
  ltm : Hermes_ltm.Ltm_config.t;
  clock_of_site : int -> Clock.t;
  seed : int;
  time_limit : int;  (** simulated-tick cap; unsound ablations can livelock *)
  site_override : (int -> Hermes_core.Dtm.site_spec option) option;
      (** heterogeneity hook: per-site specs replacing the uniform fields
          where it returns [Some] *)
  crash_schedule : (int * int) list;
      (** (tick, site index): full site crashes *)
  reboot_delay : int;
      (** ticks a crashed site stays genuinely down (deliveries to it are
          counted drops) before recovery runs; [0] is the paper's
          instantaneous reboot. Non-zero with a crash schedule marks the
          network lossy up front, arming PREPARE retransmission. *)
  crash_coordinators : bool;
      (** scheduled crashes also take down the coordinators hosted at the
          site, which reboot from the site's
          {!Hermes_core.Coordinator_log}; the agents run the in-doubt
          termination protocol (DECISION-REQ inquiries and in-doubt
          metrics). 2PCA only — the CGM baseline ignores it. Also marks
          the network lossy up front when a crash schedule exists. *)
  obs : Hermes_obs.Obs.t option;
      (** observability context threaded into every component; at the end
          of the run the engine/agent/LTM/network/client counters are
          exported into its registry *)
  moves : int;
      (** online reconfigurations: this many shard moves are scheduled
          during the run, each installing a new placement epoch after the
          losing agent hands the moved shard's prepared certification
          state to the gaining site. [0] (default) keeps the static
          epoch-0 map and the byte-identical legacy replay. 2PCA, one
          execution shard only. *)
  reconfigure_at : int;
      (** tick of the first scheduled move; move [m] fires at
          [m * reconfigure_at] *)
  leave_schedule : (int * int) list;
      (** [(tick, site)] site departures: the site leaves the serving set,
          its shards redistributing over the survivors after a prepared-
          state handover ({!Hermes_core.Dtm.leave}). Empty (default) =
          no churn. 2PCA, one execution shard only. *)
  join_schedule : (int * int) list;
      (** [(tick, site)] site (re)admissions ({!Hermes_core.Dtm.join});
          the joiner owns nothing until a later move rebalances onto it.
          A join of a site already serving raises, so pair it with an
          earlier leave. 2PCA, one execution shard only. *)
  domains : int;
      (** OCaml domains executing the run. [1] (the default) runs every
          site on one execution shard: the sequential engine,
          byte-identical to earlier revisions at the same seed. [> 1]
          runs one execution shard (engine, network instance, trace) per
          site in conservative windows spread over this many domains.
          That run is deterministic and domain-count-invariant, but its
          per-shard random streams and site-rooted programs make it a
          different schedule from the one-shard run, so its numbers are
          comparable across domain counts, not with [domains = 1]. 2PCA
          only. *)
}

val default_setup : setup

type result = {
  stats : Stats.t;
  totals : Hermes_core.Dtm.totals;
  cgm : Hermes_baselines.Cgm.stats option;
  history : Hermes_history.History.t;
  sim_ticks : int;  (** time of the last event (not inflated by the cap) *)
  events : int;
  throughput : float;  (** committed global txns per simulated second *)
  wall_s : float;  (** wall-clock seconds of the execution phase *)
  stuck : int;  (** global transactions unfinished at the cap *)
}

val run : setup -> result
(** One execution shard when [setup.domains <= 1]; otherwise
    {!run_windowed}. Either way one body runs the clients, once per
    shard. *)

val run_windowed : ?domains:int -> setup -> result
(** One execution shard per site, regardless of [setup.domains]
    (overridden by [?domains] when given, e.g. [~domains:1] to execute
    the per-site schedule on the calling domain alone — it produces the
    same result as any other domain count). With more than one site it
    requires a {!Two_pca} protocol without moves or churn, and
    [net.base_delay >= 1] (the lookahead); raises [Invalid_argument]
    otherwise. A one-site setup is a single shard: the sequential
    schedule. *)
