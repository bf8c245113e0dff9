(** Closed time intervals [lo, hi] — the "alive time intervals" of paper
    §4.2. The prepare certification accepts a subtransaction only if its
    alive interval intersects the stored alive interval of every prepared
    subtransaction at the site (Alive Time Intersection Rule). *)

type t = private { lo : Time.t; hi : Time.t }

val make : lo:Time.t -> hi:Time.t -> t
(** Raises [Invalid_argument] if [hi < lo]. *)

val point : Time.t -> t
(** The degenerate interval [t, t]. *)

val lo : t -> Time.t
val hi : t -> Time.t

val extend_to : t -> hi:Time.t -> t
(** [extend_to i ~hi] moves the upper end of [i] to [hi] (used by the
    periodic alive check: "update the end of the alive time interval"). *)

val intersects : t -> t -> bool
(** Closed-interval intersection: [intersects a b] iff they share a point. *)

val intersection : t -> t -> t option

val pp : t Fmt.t
val show : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int
