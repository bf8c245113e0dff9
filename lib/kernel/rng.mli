(** Deterministic randomness: every simulation is reproducible from one
    seed, and components draw from independent sub-streams obtained with
    [split]. *)

type t

val create : seed:int -> t

val split : t -> label:string -> t
(** An independent sub-stream keyed by [label]. Advances [t]. *)

val int : t -> bound:int -> int
(** Uniform in [0, bound). *)

val int_in : t -> lo:int -> hi:int -> int
(** Uniform in [lo, hi], inclusive. *)

val float : t -> bound:float -> float
val bool : t -> p:float -> bool
val choice : t -> 'a array -> 'a

val exponential : t -> mean:int -> int
(** Exponentially distributed integer with the given mean, at least 1. *)

val shuffle : t -> 'a array -> 'a array
(** A shuffled copy; the input is not modified. *)
