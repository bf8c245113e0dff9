(** Program generation: global programs over distinct participating
    shards with Zipf-distributed keys (never select-then-update the same
    key — the upgrade-deadlock trap), and local transaction command
    lists. *)

open Hermes_kernel

type t

val create : spec:Spec.t -> rng:Rng.t -> t

val distinct_shards : t -> int list
(** One transaction's participating shards: [min sites_per_txn shards]
    distinct shards, in the order a shuffle of all of them puts first.
    Draws one [Rng.int] per shard but the first. *)

val distinct_sites_rooted : t -> site:Site.t -> Site.t list
(** [site] followed by [min sites_per_txn n_sites - 1] distinct other
    sites, in the order a shuffle of the other sites puts first. Draws
    one [Rng.int] per other site but the first. *)

val shard_steps : t -> (int * Command.t) list
(** One global transaction's steps in shard space: distinct participating
    shards, each with its command list, in coordinator-first order. The
    driver resolves each shard through the current placement map at every
    submission attempt. *)

val global_program : t -> Hermes_core.Program.t
(** {!shard_steps} resolved through the static identity map (shard [s] at
    site [s mod n_sites]) — for callers without a placement map. Same
    draws as {!shard_steps}. *)

val global_program_rooted : t -> site:Site.t -> Hermes_core.Program.t
(** Like {!global_program} but the coordinating (first) site is forced to
    [site]; the remaining participants are drawn from the other sites.
    Used by the windowed sharded driver, which runs the static placement
    map only (each site's clients submit only to their own shard). *)

val local_partition_table : string
(** The locally-updateable table of the CGM data partition (paper §6). *)

val local_commands : ?partitioned:bool -> t -> Command.t list
(** Commands of one local transaction. With [partitioned] (CGM), writes
    are confined to {!local_partition_table}; without it (2CM), locals
    write global data and only DLU keeps them off bound items. *)
