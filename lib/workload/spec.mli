(** Workload parameters: database population, global-transaction traffic
    and local traffic per site. One spec + one seed = one deterministic
    measured run.

    Build specs with {!make} and the first-class variants below —
    [arrival], [key_dist] and [mix] are authoritative and non-optional.
    (The deprecated flat-field back-fill shim of the previous release is
    gone.) *)

(** How global transactions enter the system. *)
type arrival =
  | Closed of { mpl : int; think_time_mean : int }
      (** a fixed client population, each thinking between transactions —
          the classic benchmark loop *)
  | Open of { rate : float; max_in_flight : int }
      (** Poisson arrivals at [rate] global transactions per simulated
          second (ticks are microseconds); arrivals beyond
          [max_in_flight] in-service clients queue, and latency is
          measured from {e arrival}, so queueing delay under saturation
          shows up in the percentiles *)

(** How keys are drawn within a table. *)
type key_dist =
  | Uniform
  | Zipf of { theta : float }  (** item [i+1] has weight [1/(i+1)^theta] *)

(** The global-transaction shape. *)
type mix = { sites_per_txn : int; ops_per_site : int; write_ratio : float }

type t = {
  n_sites : int;
  n_shards : int option;
      (** data shards resolved through the placement map; [None] = one
          shard per site (the static identity map, the legacy behavior) *)
  keys_per_site : int;  (** keys per table *)
  n_tables : int;  (** tables per site, named ["T0"], ["T1"], ... *)
  n_global : int;  (** global transactions to run to completion *)
  arrival : arrival;
  mix : mix;
  key_dist : key_dist;
  local_mpl_per_site : int;
  local_write_ratio : float;
  local_txn_cap : int;  (** bound on total local transactions per run *)
  local_long_tail : float;
      (** fraction of local transactions running 8x {!local_ops} — a
          long-tail of fat local readers/writers; [0.] (default) draws no
          randomness and leaves earlier runs byte-identical *)
  max_retries : int;  (** retries of an aborted global transaction *)
}

val initial_value : int
(** The value every key is loaded with: 100. *)

val local_ops : int
(** Commands per local transaction: 2 (16 for a long-tail one). *)

val default : t
(** Closed loop, MPL 4, Zipf 0.6 — the PR 1-era parameters. *)

val make :
  ?n_sites:int ->
  ?n_shards:int ->
  ?keys_per_site:int ->
  ?n_tables:int ->
  ?n_global:int ->
  ?arrival:arrival ->
  ?mix:mix ->
  ?key_dist:key_dist ->
  ?local_mpl_per_site:int ->
  ?local_write_ratio:float ->
  ?local_txn_cap:int ->
  ?local_long_tail:float ->
  ?max_retries:int ->
  unit ->
  t

val shards : t -> int
(** Number of data shards: [n_shards], defaulting to one per site. *)

val think_time : t -> int
(** The client think-time mean: the closed loop's [think_time_mean], or
    the default (2000 ticks) for open-loop specs — used to pace retries
    and local clients. *)

val table_name : int -> string
(** ["T<i>"]: for [i] below 64, the same string on every call. *)

val tables : t -> string list
val pp_arrival : arrival Fmt.t
val pp_key_dist : key_dist Fmt.t
val pp : t Fmt.t
