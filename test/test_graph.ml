(* Tests for hermes.graph: digraphs (cycles, topo sort, SCC) and
   undirected graphs (incremental loop detection for the CGM commit
   graph). *)

module Int_vertex = struct
  type t = int

  let compare = Int.compare
  let pp = Fmt.int
end

module D = Hermes_graph.Digraph.Make (Int_vertex)
module U = Hermes_graph.Ugraph.Make (Int_vertex)

let ugraph edges = List.fold_left (fun g (u, v) -> U.add_edge g u v) U.empty edges

(* The persistent Map/Set digraph the frozen one replaced, kept verbatim
   as the reference: the frozen graph must return exactly its vertices,
   successors, edges, cycle, topological order, SCCs (members in the same
   order) and reachability. *)
module Digraph_reference = struct
  module VMap = Map.Make (Int_vertex)
  module VSet = Set.Make (Int_vertex)

  type t = { succ : VSet.t VMap.t }

  let empty = { succ = VMap.empty }

  let add_vertex g v = if VMap.mem v g.succ then g else { succ = VMap.add v VSet.empty g.succ }

  let add_edge g u v =
    let g = add_vertex (add_vertex g u) v in
    { succ = VMap.add u (VSet.add v (VMap.find u g.succ)) g.succ }

  let mem_edge g u v = match VMap.find_opt u g.succ with Some s -> VSet.mem v s | None -> false
  let vertices g = VMap.fold (fun v _ acc -> v :: acc) g.succ [] |> List.rev
  let successors g v = match VMap.find_opt v g.succ with Some s -> VSet.elements s | None -> []

  let edges g =
    VMap.fold (fun u s acc -> VSet.fold (fun v acc -> (u, v) :: acc) s acc) g.succ [] |> List.rev

  let n_vertices g = VMap.cardinal g.succ
  let n_edges g = VMap.fold (fun _ s acc -> acc + VSet.cardinal s) g.succ 0

  let find_cycle g =
    let col = ref VMap.empty in
    let get v = match VMap.find_opt v !col with Some c -> c | None -> 0 in
    let set v c = col := VMap.add v c !col in
    let cycle = ref None in
    let rec dfs path v =
      if !cycle = None then begin
        set v 1;
        let path = v :: path in
        List.iter
          (fun w ->
            if !cycle = None then
              match get w with
              | 0 -> dfs path w
              | 1 ->
                  let rec take acc = function
                    | [] -> acc
                    | x :: rest -> if Int.equal x w then x :: acc else take (x :: acc) rest
                  in
                  cycle := Some (take [] path)
              | _ -> ())
          (successors g v);
        set v 2
      end
    in
    List.iter (fun v -> if get v = 0 && !cycle = None then dfs [] v) (vertices g);
    !cycle

  let topological_sort g =
    let indeg =
      VMap.fold
        (fun _ s acc -> VSet.fold (fun v acc -> VMap.add v (1 + Option.value ~default:0 (VMap.find_opt v acc)) acc) s acc)
        g.succ
        (VMap.map (fun _ -> 0) g.succ)
    in
    let q = Queue.create () in
    VMap.iter (fun v d -> if d = 0 then Queue.add v q) indeg;
    let indeg = ref indeg in
    let out = ref [] in
    let n = ref 0 in
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      incr n;
      out := v :: !out;
      List.iter
        (fun w ->
          let d = VMap.find w !indeg - 1 in
          indeg := VMap.add w d !indeg;
          if d = 0 then Queue.add w q)
        (successors g v)
    done;
    if !n = n_vertices g then Some (List.rev !out) else None

  let sccs g =
    let index = ref 0 in
    let idx = ref VMap.empty in
    let low = ref VMap.empty in
    let on_stack = ref VSet.empty in
    let stack = ref [] in
    let out = ref [] in
    let rec strong v =
      idx := VMap.add v !index !idx;
      low := VMap.add v !index !low;
      incr index;
      stack := v :: !stack;
      on_stack := VSet.add v !on_stack;
      List.iter
        (fun w ->
          if not (VMap.mem w !idx) then begin
            strong w;
            low := VMap.add v (min (VMap.find v !low) (VMap.find w !low)) !low
          end
          else if VSet.mem w !on_stack then
            low := VMap.add v (min (VMap.find v !low) (VMap.find w !idx)) !low)
        (successors g v);
      if VMap.find v !low = VMap.find v !idx then begin
        let rec pop acc =
          match !stack with
          | [] -> acc
          | w :: rest ->
              stack := rest;
              on_stack := VSet.remove w !on_stack;
              if Int.equal w v then w :: acc else pop (w :: acc)
        in
        out := pop [] :: !out
      end
    in
    List.iter (fun v -> if not (VMap.mem v !idx) then strong v) (vertices g);
    !out

  let reachable g src dst =
    let seen = ref VSet.empty in
    let rec go v =
      if Int.equal v dst then true
      else if VSet.mem v !seen then false
      else begin
        seen := VSet.add v !seen;
        List.exists go (successors g v)
      end
    in
    go src
end

(* ------------------------------------------------------------------ *)
(* Digraph                                                             *)
(* ------------------------------------------------------------------ *)

let test_empty () =
  let empty = D.of_edges [] in
  Alcotest.(check bool) "empty acyclic" true (D.is_acyclic empty);
  Alcotest.(check int) "no vertices" 0 (D.n_vertices empty);
  Alcotest.(check bool) "topo of empty" true (D.topological_sort empty = Some [])

let test_dag () =
  let g = D.of_edges [ (1, 2); (1, 3); (2, 4); (3, 4) ] in
  Alcotest.(check bool) "acyclic" true (D.is_acyclic g);
  Alcotest.(check bool) "no cycle found" true (D.find_cycle g = None);
  match D.topological_sort g with
  | None -> Alcotest.fail "expected topo order"
  | Some order ->
      let pos x = Option.get (List.find_index (Int.equal x) order) in
      Alcotest.(check bool) "1 before 2" true (pos 1 < pos 2);
      Alcotest.(check bool) "1 before 3" true (pos 1 < pos 3);
      Alcotest.(check bool) "2 before 4" true (pos 2 < pos 4);
      Alcotest.(check bool) "3 before 4" true (pos 3 < pos 4)

let test_cycle () =
  let g = D.of_edges [ (1, 2); (2, 3); (3, 1); (3, 4) ] in
  Alcotest.(check bool) "cyclic" false (D.is_acyclic g);
  Alcotest.(check bool) "no topo order" true (D.topological_sort g = None);
  match D.find_cycle g with
  | None -> Alcotest.fail "expected a cycle"
  | Some c ->
      (* Verify it is an actual cycle in the graph. *)
      let n = List.length c in
      Alcotest.(check bool) "nonempty" true (n > 0);
      List.iteri
        (fun i u ->
          let v = List.nth c ((i + 1) mod n) in
          Alcotest.(check bool) (Fmt.str "edge %d->%d" u v) true (D.mem_edge g u v))
        c

let test_self_loop () =
  let g = D.of_edges [ (1, 1) ] in
  Alcotest.(check bool) "self-loop is a cycle" false (D.is_acyclic g);
  match D.find_cycle g with
  | Some [ 1 ] -> ()
  | other -> Alcotest.failf "expected [1], got %a" Fmt.(option (Dump.list int)) other

let test_sccs () =
  let g = D.of_edges [ (1, 2); (2, 3); (3, 1); (3, 4); (4, 5); (5, 4); (6, 6) ] in
  let sccs = List.map (List.sort Int.compare) (D.sccs g) in
  let sorted = List.sort compare sccs in
  Alcotest.(check (list (list int))) "components" [ [ 1; 2; 3 ]; [ 4; 5 ]; [ 6 ] ] sorted

let test_reachable () =
  let g = D.of_edges [ (1, 2); (2, 3) ] in
  Alcotest.(check bool) "1 reaches 3" true (D.reachable g 1 3);
  Alcotest.(check bool) "3 does not reach 1" false (D.reachable g 3 1)

let test_counts () =
  let g = D.of_edges [ (1, 2); (1, 2); (2, 3) ] in
  Alcotest.(check int) "vertices" 3 (D.n_vertices g);
  Alcotest.(check int) "edges deduplicated" 2 (D.n_edges g)

(* Random DAG: edges only from smaller to larger vertex; must be acyclic
   and topo-sortable. *)
let prop_random_dag_acyclic =
  QCheck.Test.make ~name:"random DAGs are acyclic with valid topo sort" ~count:200
    QCheck.(list (pair (int_bound 20) (int_bound 20)))
    (fun pairs ->
      let edges = List.filter_map (fun (a, b) -> if a < b then Some (a, b) else None) pairs in
      let g = D.of_edges edges in
      D.is_acyclic g
      &&
      match D.topological_sort g with
      | None -> false
      | Some order ->
          List.for_all
            (fun (u, v) ->
              let pos x = Option.get (List.find_index (Int.equal x) order) in
              pos u < pos v)
            edges)

let prop_cycle_closes =
  QCheck.Test.make ~name:"adding a back path makes a cycle detectable" ~count:200
    QCheck.(int_range 2 15)
    (fun n ->
      (* chain 0 -> 1 -> ... -> n, then n -> 0 *)
      let chain = List.init n (fun i -> (i, i + 1)) in
      let g = D.of_edges ((n, 0) :: chain) in
      (not (D.is_acyclic g)) && D.find_cycle g <> None)

let prop_scc_topological_order =
  QCheck.Test.make ~name:"sccs come out in topological order of the condensation" ~count:300
    QCheck.(list (pair (int_bound 10) (int_bound 10)))
    (fun pairs ->
      let g = D.of_edges pairs in
      let sccs = D.sccs g in
      let component_of = Hashtbl.create 16 in
      List.iteri (fun i scc -> List.iter (fun v -> Hashtbl.replace component_of v i) scc) sccs;
      List.for_all
        (fun (u, v) ->
          let cu = Hashtbl.find component_of u and cv = Hashtbl.find component_of v in
          cu <= cv)
        (D.edges g))

let prop_find_cycle_sound =
  QCheck.Test.make ~name:"find_cycle returns an actual cycle" ~count:300
    QCheck.(list (pair (int_bound 10) (int_bound 10)))
    (fun pairs ->
      let g = D.of_edges pairs in
      match D.find_cycle g with
      | None -> D.is_acyclic g
      | Some c ->
          let n = List.length c in
          n > 0
          && List.for_all
               (fun i -> D.mem_edge g (List.nth c i) (List.nth c ((i + 1) mod n)))
               (List.init n Fun.id))

(* ------------------------------------------------------------------ *)
(* Frozen digraph against the Map/Set reference                        *)
(* ------------------------------------------------------------------ *)

(* Random edge lists over vertices 0..n-1, self-loops included, with
   every third edge repeated, plus up to three isolated vertices from
   n..n+2 given only as vertices. Half the cases keep forward edges only,
   so the graph is acyclic and has a topological order; the other half
   add a self-loop and a ring through three to five vertices, hence an
   SCC of three or more. *)
let reference_case_gen =
  QCheck.Gen.(
    let* n = int_range 3 12 in
    let* random = list_size (int_bound 24) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
    let* isolated = list_size (int_bound 3) (int_range n (n + 2)) in
    let* acyclic = bool in
    let* edges =
      if acyclic then return (List.filter (fun (u, v) -> u < v) random)
      else
        let* len = int_range 3 (min 5 n) in
        let* perm = shuffle_l (List.init n Fun.id) in
        let* loop = int_bound (n - 1) in
        let ring = List.filteri (fun i _ -> i < len) perm in
        let ring_edges = List.mapi (fun i u -> (u, List.nth ring ((i + 1) mod len))) ring in
        return (((loop, loop) :: ring_edges) @ random)
    in
    return (isolated, edges @ List.filteri (fun i _ -> i mod 3 = 0) edges))

let prop_matches_reference =
  QCheck.Test.make ~name:"frozen digraph = Map/Set reference" ~count:1000
    (QCheck.make ~print:QCheck.Print.(pair (list int) (list (pair int int))) reference_case_gen)
    (fun (isolated, edges) ->
      let module R = Digraph_reference in
      let g = D.of_edges ~vertices:isolated edges in
      let r =
        List.fold_left (fun r (u, v) -> R.add_edge r u v) (List.fold_left R.add_vertex R.empty isolated) edges
      in
      (* Every vertex, plus one absent on each side. *)
      let probes = List.init 17 (fun i -> i - 1) in
      let for_pairs f = List.for_all (fun u -> List.for_all (f u) probes) probes in
      let vs = Array.of_list (D.vertices g) in
      let at v = Option.get (Array.find_index (Int.equal v) vs) in
      let from_rows =
        D.of_rows vs (fun i -> Array.of_list (List.map at (D.successors g vs.(i))))
      in
      D.vertices g = R.vertices r
      && D.n_vertices g = R.n_vertices r
      && List.for_all (fun v -> D.mem_vertex g v = List.mem v (R.vertices r)) probes
      && List.for_all (fun v -> D.successors g v = R.successors r v) probes
      && D.edges g = R.edges r
      && D.n_edges g = R.n_edges r
      && for_pairs (fun u v -> D.mem_edge g u v = R.mem_edge r u v)
      && D.find_cycle g = R.find_cycle r
      && D.is_acyclic g = (R.find_cycle r = None)
      && D.topological_sort g = R.topological_sort r
      && D.sccs g = R.sccs r
      && for_pairs (fun u v -> D.reachable g u v = R.reachable r u v)
      && D.edges from_rows = D.edges g)

let test_of_rows_checks_input () =
  let raises name f = Alcotest.check_raises name (Invalid_argument (Fmt.str "Digraph.of_rows: %s" name)) f in
  raises "vertices not strictly ascending" (fun () -> ignore (D.of_rows [| 2; 1 |] (fun _ -> [||])));
  raises "row not strictly ascending within bounds" (fun () -> ignore (D.of_rows [| 1; 2 |] (fun _ -> [| 1; 0 |])));
  raises "row not strictly ascending within bounds" (fun () -> ignore (D.of_rows [| 1; 2 |] (fun _ -> [| 2 |])));
  let g = D.of_rows [| 1; 5; 9 |] (fun i -> if i = 0 then [| 1; 2 |] else [||]) in
  Alcotest.(check (list (pair int int))) "edges" [ (1, 5); (1, 9) ] (D.edges g)

(* ------------------------------------------------------------------ *)
(* Ugraph                                                              *)
(* ------------------------------------------------------------------ *)

let test_u_basic () =
  let g = ugraph [ (1, 2); (2, 3) ] in
  Alcotest.(check bool) "edge" true (U.mem_edge g 1 2);
  Alcotest.(check bool) "symmetric" true (U.mem_edge g 2 1);
  Alcotest.(check bool) "connected" true (U.connected g 1 3);
  Alcotest.(check bool) "tree has no cycle" false (U.has_cycle g)

let test_u_cycle () =
  let g = ugraph [ (1, 2); (2, 3); (3, 1) ] in
  Alcotest.(check bool) "triangle" true (U.has_cycle g)

let test_u_would_close () =
  let g = ugraph [ (1, 2); (2, 3) ] in
  Alcotest.(check bool) "closing edge" true (U.adding_edges_creates_cycle g [ (1, 3) ]);
  Alcotest.(check bool) "fresh edge" false (U.adding_edges_creates_cycle g [ (3, 4) ]);
  Alcotest.(check bool) "batch with internal cycle" true
    (U.adding_edges_creates_cycle g [ (4, 5); (5, 6); (6, 4) ]);
  Alcotest.(check bool) "batch forest" false (U.adding_edges_creates_cycle g [ (4, 5); (5, 6) ])

let test_u_remove () =
  let g = ugraph [ (1, 2); (2, 3); (3, 1) ] in
  let g = U.remove_edge g 3 1 in
  Alcotest.(check bool) "no longer cyclic" false (U.has_cycle g);
  let g = U.remove_vertex g 2 in
  Alcotest.(check bool) "1-3 disconnected" false (U.connected g 1 3)

(* Consistency: adding_edges_creates_cycle g [e] agrees with has_cycle
   after actually adding e. *)
let prop_u_incremental_consistent =
  QCheck.Test.make ~name:"incremental loop check agrees with has_cycle" ~count:300
    QCheck.(pair (list (pair (int_bound 8) (int_bound 8))) (pair (int_bound 8) (int_bound 8)))
    (fun (pairs, (a, b)) ->
      (* Undirected simple graphs: skip self-loops, dedupe. *)
      let edges = List.filter (fun (u, v) -> u <> v) pairs in
      let g = List.fold_left (fun g (u, v) -> if U.mem_edge g u v then g else U.add_edge g u v) U.empty edges in
      QCheck.assume (a <> b);
      QCheck.assume (not (U.mem_edge g a b));
      QCheck.assume (not (U.has_cycle g));
      let predicted = U.adding_edges_creates_cycle g [ (a, b) ] in
      let actual = U.has_cycle (U.add_edge g a b) in
      predicted = actual)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "graph"
    [
      ( "digraph",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "dag" `Quick test_dag;
          Alcotest.test_case "cycle" `Quick test_cycle;
          Alcotest.test_case "self-loop" `Quick test_self_loop;
          Alcotest.test_case "sccs" `Quick test_sccs;
          Alcotest.test_case "reachable" `Quick test_reachable;
          Alcotest.test_case "counts" `Quick test_counts;
          q prop_random_dag_acyclic;
          q prop_cycle_closes;
          q prop_scc_topological_order;
          q prop_find_cycle_sound;
          Alcotest.test_case "of_rows checks its input" `Quick test_of_rows_checks_input;
          q prop_matches_reference;
        ] );
      ( "ugraph",
        [
          Alcotest.test_case "basics" `Quick test_u_basic;
          Alcotest.test_case "cycle" `Quick test_u_cycle;
          Alcotest.test_case "incremental check" `Quick test_u_would_close;
          Alcotest.test_case "removal" `Quick test_u_remove;
          q prop_u_incremental_consistent;
        ] );
    ]
