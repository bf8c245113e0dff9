(** The unilateral-abort injector (paper §1), lifecycle-driven: on
    entering the simulated prepared state a subtransaction may be
    scheduled one abort attempt after an exponential delay, and site
    crashes abort every live transaction at once. Aborts per
    (transaction, site) are capped, realizing the TW assumption. *)

type config

val disabled : config

val prepared_rate : float -> config
(** Abort each prepared subtransaction with the given probability — the
    dial the failure-sweep experiments turn. *)

val crashes : mean_interval:int -> horizon:int -> config
(** Site crashes — the paper's *collective* unilateral abort (§1): every
    live transaction at the site aborted at once, crashes [mean_interval]
    ticks apart on average, none scheduled past tick [horizon]. *)

val max_per_victim : int
(** The TW cap: injected aborts per logical transaction at one site. *)

type t

val attach : engine:Hermes_sim.Engine.t -> rng:Hermes_kernel.Rng.t -> config:config -> Ltm.t -> t
val injected : t -> int
val crash_count : t -> int
