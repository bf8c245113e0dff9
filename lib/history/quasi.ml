(* Quasi serializability — the weaker correctness criterion of Du &
   Elmagarmid ("Quasi Serializability: a Correctness Criterion for Global
   Concurrency Control in InterBase", VLDB 1989), which the paper cites as
   [11] for the indirect-conflict problem and implicitly argues against by
   insisting on full view serializability.

   A history is quasi serializable iff it is (conflict-)equivalent to a
   *quasi-serial* history: one where the global transactions execute
   serially (local transactions may interleave freely as long as each
   local history stays serializable). Operationally: there must exist a
   total order of the global transactions consistent with every
   conflict-induced dependency between them — including dependencies
   transmitted through chains of local transactions.

   Deciding it is simple on the serialization graph: G_i must-precede G_j
   iff SG(H) has any path from G_i to G_j, and a quasi-serial equivalent
   also needs every local transaction placeable entirely before or after
   each global block it conflicts with. So quasi serializability holds iff
   no strongly connected component of SG(C(H)) that contains a global
   transaction has size >= 2. (A cycle among locals only is impossible
   here: locals conflict only within their site, and the rigorous local
   schedulers keep each site's projection acyclic; note that a
   global-local 2-cycle *can* arise through the extended committed
   projection's aborted incarnations — the H1 mechanism — and it does
   refute QSR.)

   The point of having it here: histories like H2/H3 show the *gap*
   between QSR and the paper's criterion — and some naive-agent histories
   are QSR yet still give local transactions impossible views, which is
   exactly why the paper demands view serializability instead. *)

open Hermes_kernel

type verdict =
  | Quasi_serializable of Txn.t list  (* a witness order of the global transactions *)
  | Not_quasi_serializable of Txn.t list  (* a non-trivial SCC containing a global transaction *)

let pp_verdict ppf = function
  | Quasi_serializable order ->
      Fmt.pf ppf "quasi serializable (globals as %a)" Fmt.(list ~sep:sp Txn.pp) order
  | Not_quasi_serializable scc ->
      Fmt.pf ppf "NOT quasi serializable (entangled globals: %a)" Fmt.(list ~sep:comma Txn.pp) scc

let of_graph g =
  let sccs = Serialization_graph.G.sccs g in
  let bad =
    List.find_opt (fun scc -> List.length scc >= 2 && List.exists Txn.is_global scc) sccs
  in
  match bad with
  | Some scc -> Not_quasi_serializable scc
  | None ->
      (* SCCs come out in topological order of the component DAG; the
         globals in that order witness a quasi-serial equivalent. *)
      Quasi_serializable (List.concat_map (List.filter Txn.is_global) sccs)

let check h = of_graph (Serialization_graph.build h)

let is_quasi_serializable h =
  match check h with Quasi_serializable _ -> true | Not_quasi_serializable _ -> false
