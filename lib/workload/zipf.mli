(** Zipfian key sampling (theta = 0 is uniform). *)

open Hermes_kernel

type t

val create : n:int -> theta:float -> t
val sample : t -> Rng.t -> int
(** A key in [0, n), item 0 hottest. *)
