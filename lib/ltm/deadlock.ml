(* Wait-for-graph deadlock detection over a lock table.

   The wait-for graph has an edge waiter -> holder for every queued
   request and every holder whose lock conflicts with it. Queue-order
   waits (a compatible request stuck behind an incompatible one in FIFO
   order) are not edges, so detection is incomplete by design; the LTM's
   lock-wait timeout is the backstop, exactly as the paper assumes
   timeout-based resolution for 2CM (§6). *)

module G = Hermes_graph.Digraph.Make (struct
  type t = int

  let compare = Int.compare
  let pp = Fmt.int
end)

let wait_for_graph locks =
  G.of_edges
    (List.concat_map
       (fun (key, waiter, mode) ->
         List.map (fun holder -> (waiter, holder)) (Lock.blockers locks key ~owner:waiter ~mode))
       (Lock.waiting locks))

(* Would [waiter]'s (not yet queued) request for [key]/[mode] close a
   wait-for cycle through [waiter]? True iff some blocking holder can
   already reach [waiter] in the current graph. *)
let would_deadlock locks ~waiter ~key ~mode =
  let blockers = Lock.blockers locks key ~owner:waiter ~mode in
  blockers <> []
  &&
  let g = wait_for_graph locks in
  List.exists (fun holder -> G.mem_vertex g holder && G.reachable g holder waiter) blockers
