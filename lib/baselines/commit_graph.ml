(* The commit graph of the Commit Graph Method (Breitbart, Silberschatz &
   Thompson, SIGMOD 1990), as described in the paper's §6 comparison: an
   undirected bipartite graph whose nodes are global transactions and
   Participating Sites; an edge connects transaction T and site S iff T's
   global subtransaction at S is in the prepared state. A loop signals a
   potential conflict among global and local transactions — at *site*
   granularity, which is exactly the coarseness the paper's
   restrictiveness comparison targets. *)

open Hermes_kernel

type node = Txn_node of int | Site_node of Site.t

module G = Hermes_graph.Ugraph.Make (struct
  type t = node

  let compare a b =
    match (a, b) with
    | Txn_node x, Txn_node y -> Int.compare x y
    | Site_node x, Site_node y -> Site.compare x y
    | Txn_node _, Site_node _ -> -1
    | Site_node _, Txn_node _ -> 1

  let pp ppf = function
    | Txn_node gid -> Fmt.pf ppf "T%d" gid
    | Site_node s -> Site.pp ppf s
end)

type t = { mutable graph : G.t }

let create () = { graph = G.empty }

let edges_of ~gid ~sites = List.map (fun s -> (Txn_node gid, Site_node s)) sites

let would_loop t ~gid ~sites = G.adding_edges_creates_cycle t.graph (edges_of ~gid ~sites)

let enter t ~gid ~sites =
  List.iter (fun (u, v) -> t.graph <- G.add_edge t.graph u v) (edges_of ~gid ~sites)

let leave t ~gid = t.graph <- G.remove_vertex t.graph (Txn_node gid)

let pp ppf t = G.pp ppf t.graph
