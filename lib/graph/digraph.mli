(** Frozen directed graphs. One representation serves every directed graph
    in the system: the serialization graph SG(C(H)) that every report
    searches, the commit order graph CG(H) that tests materialize as the
    reference for its greedy check, and the LTMs' wait-for graphs.

    A graph is built once, from an edge list or from per-vertex rows, and
    never changes. Vertices are held in ascending [V.compare] order and
    each vertex's successors in ascending order without duplicates; every
    traversal visits vertices, and each vertex's successors, in that
    order, so its result depends only on the set of vertices and edges. *)

module type VERTEX = sig
  type t

  val compare : t -> t -> int
  val pp : t Fmt.t
end

module type S = sig
  type vertex
  type t

  val of_edges : ?vertices:vertex list -> (vertex * vertex) list -> t
  (** The graph on [vertices] plus both endpoints of every edge. Duplicate
      edges count once; self-edges are allowed and count as cycles. *)

  val of_rows : vertex array -> (int -> int array) -> t
  (** [of_rows vs row] is the graph on [vs], which must be strictly
      ascending by [V.compare], in which [vs.(i)] has the successors
      [vs.(j)] for [j] in [row i]. Each row must be strictly ascending
      and within the bounds of [vs]. [row] is called once per vertex, in
      ascending order of [i]. Raises [Invalid_argument] otherwise. *)

  val mem_vertex : t -> vertex -> bool
  val mem_edge : t -> vertex -> vertex -> bool
  val vertices : t -> vertex list
  val successors : t -> vertex -> vertex list
  val edges : t -> (vertex * vertex) list
  val n_vertices : t -> int
  val n_edges : t -> int

  val is_acyclic : t -> bool

  val find_cycle : t -> vertex list option
  (** An actual cycle [v1; ...; vk] with edges v1->v2->...->vk->v1, if any:
      the first back edge of a depth-first search. *)

  val topological_sort : t -> vertex list option
  (** Kahn's algorithm; [None] iff the graph is cyclic. *)

  val sccs : t -> vertex list list
  (** Tarjan's strongly connected components, in topological order of the
      component DAG; each component lists its members in the order the
      search reached them. *)

  val reachable : t -> vertex -> vertex -> bool
  (** [reachable g u v]: [u] equals [v], or a path leads from [u] to [v]. *)

  val pp : t Fmt.t
end

module Make (V : VERTEX) : S with type vertex = V.t
