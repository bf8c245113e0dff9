(* A generic directed graph, functorized over the vertex type.

   The graph is frozen, in compressed sparse row form: the vertices sit
   once in an array sorted by [V.compare], and vertex i's successors are
   the indices [succ.(off.(i)) .. succ.(off.(i + 1) - 1)], ascending and
   without duplicates. The algorithms walk int arrays and are linear in
   vertices + edges; vertex values are touched only to look up a query's
   arguments (binary search) and to translate results.

   Every traversal visits vertices ascending and each vertex's successors
   ascending, the order of a sorted map of sorted sets. So a cycle, an SCC
   and a topological order depend only on the set of vertices and edges,
   never on how the graph was built. *)

module type VERTEX = sig
  type t

  val compare : t -> t -> int
  val pp : t Fmt.t
end

module type S = sig
  type vertex
  type t

  val of_edges : ?vertices:vertex list -> (vertex * vertex) list -> t
  val of_rows : vertex array -> (int -> int array) -> t
  val mem_vertex : t -> vertex -> bool
  val mem_edge : t -> vertex -> vertex -> bool
  val vertices : t -> vertex list
  val successors : t -> vertex -> vertex list
  val edges : t -> (vertex * vertex) list
  val n_vertices : t -> int
  val n_edges : t -> int
  val is_acyclic : t -> bool
  val find_cycle : t -> vertex list option
  val topological_sort : t -> vertex list option
  val sccs : t -> vertex list list
  val reachable : t -> vertex -> vertex -> bool
  val pp : t Fmt.t
end

module Make (V : VERTEX) : S with type vertex = V.t = struct
  type vertex = V.t

  type t = {
    vs : V.t array;  (* ascending by V.compare *)
    off : int array;  (* length |vs| + 1; row i is succ.(off.(i)) .. succ.(off.(i + 1) - 1) *)
    succ : int array;  (* vertex indices, ascending within each row *)
  }

  let n_vertices g = Array.length g.vs
  let n_edges g = Array.length g.succ

  (* First index in [lo, hi) of [a] whose element is >= [x] under [cmp]. *)
  let lower_bound cmp a x lo hi =
    let lo = ref lo and hi = ref hi in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if cmp a.(mid) x < 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  (* The index of [v], or -1. *)
  let index g v =
    let n = Array.length g.vs in
    let i = lower_bound V.compare g.vs v 0 n in
    if i < n && V.compare g.vs.(i) v = 0 then i else -1

  let has_succ g i j =
    let hi = g.off.(i + 1) in
    let k = lower_bound Int.compare g.succ j g.off.(i) hi in
    k < hi && g.succ.(k) = j

  let of_rows vs row =
    let n = Array.length vs in
    for i = 1 to n - 1 do
      if V.compare vs.(i - 1) vs.(i) >= 0 then invalid_arg "Digraph.of_rows: vertices not strictly ascending"
    done;
    let rows =
      Array.init n (fun i ->
          let r = row i in
          Array.iteri
            (fun k j ->
              if j < 0 || j >= n || (k > 0 && r.(k - 1) >= j) then
                invalid_arg "Digraph.of_rows: row not strictly ascending within bounds")
            r;
          r)
    in
    let off = Array.make (n + 1) 0 in
    Array.iteri (fun i r -> off.(i + 1) <- off.(i) + Array.length r) rows;
    { vs; off; succ = Array.concat (Array.to_list rows) }

  let of_edges ?(vertices = []) edges =
    let vs =
      Array.of_list (List.sort_uniq V.compare (List.fold_left (fun acc (u, v) -> u :: v :: acc) vertices edges))
    in
    let at v = lower_bound V.compare vs v 0 (Array.length vs) in
    let rows = Array.make (Array.length vs) [] in
    List.iter (fun (u, v) -> rows.(at u) <- at v :: rows.(at u)) edges;
    of_rows vs (fun i -> Array.of_list (List.sort_uniq Int.compare rows.(i)))

  let mem_vertex g v = index g v >= 0

  let mem_edge g u v =
    let i = index g u and j = index g v in
    i >= 0 && j >= 0 && has_succ g i j

  let vertices g = Array.to_list g.vs

  let successors g v =
    match index g v with
    | -1 -> []
    | i -> List.init (g.off.(i + 1) - g.off.(i)) (fun k -> g.vs.(g.succ.(g.off.(i) + k)))

  let edges g =
    let acc = ref [] in
    for i = n_vertices g - 1 downto 0 do
      for k = g.off.(i + 1) - 1 downto g.off.(i) do
        acc := (g.vs.(i), g.vs.(g.succ.(k))) :: !acc
      done
    done;
    !acc

  let to_vertices g l = List.map (fun i -> g.vs.(i)) l

  exception Cycle of int list

  (* DFS with three colours; the first back edge v -> w closes the cycle
     w ... v read off the grey path. *)
  let find_cycle g =
    (* Colours: 0 = white, 1 = grey (on the DFS path), 2 = black. *)
    let col = Array.make (n_vertices g) 0 in
    let rec dfs path v =
      col.(v) <- 1;
      let path = v :: path in
      for k = g.off.(v) to g.off.(v + 1) - 1 do
        let w = g.succ.(k) in
        match col.(w) with
        | 0 -> dfs path w
        | 1 ->
            let rec take acc = function
              | [] -> acc
              | x :: rest -> if x = w then x :: acc else take (x :: acc) rest
            in
            raise (Cycle (take [] path))
        | _ -> ()
      done;
      col.(v) <- 2
    in
    match
      for v = 0 to n_vertices g - 1 do
        if col.(v) = 0 then dfs [] v
      done
    with
    | () -> None
    | exception Cycle c -> Some (to_vertices g c)

  let is_acyclic g = find_cycle g = None

  (* Kahn's algorithm; [None] if the graph is cyclic. *)
  let topological_sort g =
    let n = n_vertices g in
    let indeg = Array.make n 0 in
    Array.iter (fun w -> indeg.(w) <- indeg.(w) + 1) g.succ;
    (* A FIFO queue: every vertex enters it at most once. *)
    let queue = Array.make n 0 and head = ref 0 and tail = ref 0 in
    let push v =
      queue.(!tail) <- v;
      incr tail
    in
    for v = 0 to n - 1 do
      if indeg.(v) = 0 then push v
    done;
    while !head < !tail do
      let v = queue.(!head) in
      incr head;
      for k = g.off.(v) to g.off.(v + 1) - 1 do
        let w = g.succ.(k) in
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then push w
      done
    done;
    if !tail = n then Some (Array.to_list (Array.map (fun i -> g.vs.(i)) queue)) else None

  (* Tarjan's strongly connected components, returned in topological
     order of the component DAG. *)
  let sccs g =
    let n = n_vertices g in
    let idx = Array.make n (-1) and low = Array.make n 0 and on_stack = Array.make n false in
    let index = ref 0 and stack = ref [] and out = ref [] in
    let rec strong v =
      idx.(v) <- !index;
      low.(v) <- !index;
      incr index;
      stack := v :: !stack;
      on_stack.(v) <- true;
      for k = g.off.(v) to g.off.(v + 1) - 1 do
        let w = g.succ.(k) in
        if idx.(w) < 0 then begin
          strong w;
          low.(v) <- Int.min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- Int.min low.(v) idx.(w)
      done;
      if low.(v) = idx.(v) then begin
        let rec pop acc =
          match !stack with
          | [] -> acc
          | w :: rest ->
              stack := rest;
              on_stack.(w) <- false;
              if w = v then w :: acc else pop (w :: acc)
        in
        out := to_vertices g (pop []) :: !out
      end
    in
    for v = 0 to n - 1 do
      if idx.(v) < 0 then strong v
    done;
    (* Tarjan completes sink components first; the accumulated prepends
       therefore already read in topological order of the condensation. *)
    !out

  let reachable g src dst =
    V.compare src dst = 0
    ||
    let s = index g src and d = index g dst in
    s >= 0 && d >= 0
    &&
    let seen = Array.make (n_vertices g) false and todo = Stack.create () and found = ref false in
    seen.(s) <- true;
    Stack.push s todo;
    while (not !found) && not (Stack.is_empty todo) do
      let v = Stack.pop todo in
      for k = g.off.(v) to g.off.(v + 1) - 1 do
        let w = g.succ.(k) in
        if w = d then found := true
        else if not seen.(w) then begin
          seen.(w) <- true;
          Stack.push w todo
        end
      done
    done;
    !found

  let pp ppf g =
    let pp_edge ppf (u, v) = Fmt.pf ppf "%a->%a" V.pp u V.pp v in
    Fmt.pf ppf "@[<hov>{%a}@]" Fmt.(list ~sep:comma pp_edge) (edges g)
end
