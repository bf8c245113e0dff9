(** The CGM commit graph (Breitbart, Silberschatz & Thompson, SIGMOD 1990;
    paper §6): an undirected bipartite graph of global transactions and
    Participating Sites; an edge means "T's subtransaction is in the
    prepared state at S"; a loop signals a potential conflict — at site
    granularity. *)

open Hermes_kernel

type node = Txn_node of int | Site_node of Site.t

module G : Hermes_graph.Ugraph.S with type vertex = node

type t

val create : unit -> t

val would_loop : t -> gid:int -> sites:Site.t list -> bool
(** Would adding T's (transaction, site) edges close a loop? *)

val enter : t -> gid:int -> sites:Site.t list -> unit
val leave : t -> gid:int -> unit
val pp : t Fmt.t
