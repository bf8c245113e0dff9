(** The Commit Graph Method baseline (paper §6): a centralized scheduler
    with a coarse-granularity global S2PL lock manager (acquired before
    execution, held to transaction end), the commit graph gating the
    commit phase, and naive (certification-free) resubmitting agents
    underneath. Local transactions are restricted by the
    locally-/globally-updateable data partition, realized in the workload
    generator. *)

open Hermes_kernel

type granularity = Site_level | Table_level

type stats = {
  mutable gate_delays : int;
  mutable glock_timeouts : int;
  mutable gate_wait_ticks : int;
}

type t

val create :
  engine:Hermes_sim.Engine.t ->
  rng:Rng.t ->
  net_config:Hermes_net.Network.config ->
  granularity:granularity ->
  ?obs:Hermes_obs.Obs.t ->
  site_specs:Hermes_core.Dtm.site_spec array ->
  unit ->
  t

val dtm : t -> Hermes_core.Dtm.t
(** The underlying (naive-agent) DTM, for loading data and reading the
    history. *)

val stats : t -> stats

val submit : t -> Hermes_core.Program.t -> on_done:(Hermes_core.Coordinator.outcome -> unit) -> unit
(** Acquire the global locks (sorted order; timeout aborts), run the
    program through the DTM with the commit-graph gate, release on
    completion. *)
