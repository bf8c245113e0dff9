(** The alive interval table (paper §4.2, Appendix): one entry per global
    subtransaction in the (simulated) prepared state at a site, holding
    its serial number and last known alive time interval.

    A site holds a handful of prepared subtransactions at a time, so the
    table is one dense array scanned linearly: every query is one pass
    over the entries, and no aggregate is maintained on the side.

    [entry.interval] is changed through [update_interval],
    [extend_interval] and [extend_entry] only. *)

open Hermes_kernel

type entry = { gid : int; sn : Sn.t; mutable interval : Interval.t }
type t

val create : unit -> t

val insert : t -> gid:int -> sn:Sn.t -> interval:Interval.t -> unit
(** Raises [Invalid_argument] on duplicate gids. *)

val remove : t -> gid:int -> unit

val clear : t -> unit
(** Remove every entry (a site crash loses the volatile table). *)

val find : t -> gid:int -> entry option

val copy : t -> t
(** An independent copy: mutations of either table never touch the
    other. [Agent_sm.copy] uses it for callers that branch from a state
    (the model checker's DFS), since [Agent_sm.step] updates its input's
    table in place; the shard-handover operations copy on write. *)

val mem : t -> gid:int -> bool

val entries : t -> entry list
(** In no particular order. *)

val iter : (entry -> unit) -> t -> unit
val for_all : (entry -> bool) -> t -> bool
val size : t -> int

val update_interval : t -> gid:int -> Interval.t -> unit
(** Begin a fresh interval after a completed resubmission, replacing the
    failed incarnation's — the paper's store-only-the-last-interval
    certifier. No-op on absent gids. *)

val extend_interval : t -> gid:int -> hi:Time.t -> unit
(** Move the interval's upper end (a successful alive check). No-op on
    absent gids or when [hi] precedes the interval. *)

val extend_entry : entry -> hi:Time.t -> unit
(** [extend_interval] on an entry already in hand (from [iter] or
    [find]), without looking it up again. No-op when [hi] precedes the
    interval. *)

val all_intersect : t -> Interval.t -> bool
(** The Alive Time Intersection Rule: may the candidate be prepared? The
    candidate must intersect the interval of every entry. *)

val first_non_intersecting : t -> Interval.t -> entry option
(** A deterministic witness for a failed intersection rule: the
    smallest-gid entry whose interval misses the candidate. *)

val min_sn_holds : t -> gid:int -> sn:Sn.t -> bool
(** Commit certification test (Appendix C): does every *other* entry have
    a bigger serial number? *)

val min_sn_blocker : t -> gid:int -> sn:Sn.t -> entry option
(** A deterministic witness for a failed commit certification: the other
    entry with the smallest (serial number, gid) at or below [sn]. *)

val pp : t Fmt.t
