(** The epoch-versioned shard map: [key -> shard -> site].

    Placement is a pure value; every transition returns a new map with
    the epoch incremented. Installed maps are never mutated, so a stale
    reader holds a stale {e epoch} — and the wire-level epoch check turns
    that into a WRONG-EPOCH refusal plus re-resolution rather than a
    misrouted subtransaction.

    Invariants, preserved by every transition: ownership is {e total}
    (every shard has an owner) and {e disjoint} (exactly one owner per
    shard per epoch) — invariant I6(a) of the model checker. *)

open Hermes_kernel

type t

val static : ?n_shards:int -> n_sites:int -> unit -> t
(** The epoch-0 map every earlier revision hard-coded: [n_shards]
    (default one per site) with shard [i] owned by site [i mod n_sites].
    Runs that never reconfigure stay on it and replay byte-identically. *)

val epoch : t -> int
val n_shards : t -> int
val sites : t -> Site.t list
(** Serving sites, ascending. *)

val mem_site : t -> Site.t -> bool
(** Whether the site is serving. *)

val owner : t -> shard:int -> Site.t
(** Raises [Invalid_argument] on an out-of-range shard. *)

val shard_of_key : t -> key:int -> int
(** [key mod n_shards], non-negative. *)

val resolve : t -> key:int -> Site.t
(** [owner (shard_of_key key)]. *)

val shards_of : t -> site:Site.t -> int list
(** The shards [site] currently owns, ascending. *)

val move : t -> shard:int -> to_:Site.t -> t
(** Reassign one shard; epoch + 1. [to_] must be serving. *)

val add_site : t -> site:Site.t -> t
(** A new serving site joins (owning nothing until a {!move}); epoch + 1.
    Raises if already serving. *)

val remove_site : t -> site:Site.t -> t
(** A serving site leaves; its shards redistribute round-robin over the
    survivors in shard order; epoch + 1. Raises on the last site. *)

val pp : t Fmt.t
