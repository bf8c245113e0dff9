(* A purely functional leftist min-heap, functorized over the element
   order. The simulation engine stores (time, sequence) keyed events in
   one; the deterministic tie-break lives in the element order. *)

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
  val of_list : elt list -> t
  val to_sorted_list : t -> elt list
end

module Make (E : ORDERED) : S with type elt = E.t = struct
  type elt = E.t

  (* No cached size: every insert and pop allocates a node per level of
     the merge path, and a field less per node is a word less each. *)
  type t =
    | Leaf
    | Node of { rank : int; v : elt; l : t; r : t }

  let empty = Leaf
  let is_empty = function Leaf -> true | Node _ -> false
  let rank = function Leaf -> 0 | Node { rank; _ } -> rank
  let rec size = function Leaf -> 0 | Node { l; r; _ } -> 1 + size l + size r

  let node v l r =
    if rank l >= rank r then Node { rank = rank r + 1; v; l; r }
    else Node { rank = rank l + 1; v; l = r; r = l }

  let rec merge a b =
    match (a, b) with
    | Leaf, t | t, Leaf -> t
    | Node na, Node nb ->
        if E.compare na.v nb.v <= 0 then node na.v na.l (merge na.r b)
        else node nb.v nb.l (merge a nb.r)

  let insert t v = merge t (Node { rank = 1; v; l = Leaf; r = Leaf })
  let min = function Leaf -> None | Node { v; _ } -> Some v
  let pop = function Leaf -> None | Node { v; l; r; _ } -> Some (v, merge l r)
  let of_list l = List.fold_left insert empty l

  let to_sorted_list t =
    let rec go acc t = match pop t with None -> List.rev acc | Some (v, t') -> go (v :: acc) t' in
    go [] t
end
