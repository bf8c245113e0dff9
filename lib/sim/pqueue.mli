(** Purely functional leftist min-heaps. *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module type S = sig
  type elt
  type t

  val empty : t
  val is_empty : t -> bool
  val insert : t -> elt -> t
  val min : t -> elt option
  val pop : t -> (elt * t) option
  val size : t -> int
  (** Counts the nodes: O(n). *)

  val of_list : elt list -> t
  val to_sorted_list : t -> elt list
end

module Make (E : ORDERED) : S with type elt = E.t
