(* The combined verification report for a recorded history.

   [analyze] takes the verdict and C(H) from one Correctness call, then
   builds SG(C(H)) for what the verdict does not need: its cycle and the
   related-work QSR criterion. Whether the run is correct is the
   verdict's call alone (Theorem 19 of the companion report, restated in
   §5.1: local rigorousness + no global view distortion + acyclic
   CG(C(H)) imply view serializability of H). *)

open Hermes_kernel

type t = {
  n_txns : int;
  n_global : int;
  n_local : int;
  n_ops : int;
  verdict : Correctness.t;
  sg_cycle : Txn.t list option;
  quasi : Quasi.verdict;
}

let analyze h =
  let verdict, c = Correctness.check_projection h in
  (* SG(C(H)) is built once for the cycle search and the QSR verdict. *)
  let sg = Serialization_graph.build c in
  {
    n_txns = List.length (History.txns c);
    n_global = List.length (History.global_txns c);
    n_local = List.length (History.local_txns c);
    n_ops = History.length c;
    verdict;
    sg_cycle = Serialization_graph.G.find_cycle sg;
    quasi = Quasi.of_graph sg;
  }

let ok t = Correctness.ok t.verdict

let pp ppf t =
  let v = t.verdict in
  Fmt.pf ppf "@[<v>committed projection: %d txns (%d global, %d local), %d ops@," t.n_txns t.n_global
    t.n_local t.n_ops;
  (if Correctness.rigorous v then Fmt.pf ppf "local histories: rigorous at all sites@,"
   else
     List.iter
       (fun (s, vs) ->
         if vs <> [] then
           Fmt.pf ppf "site %a: %d rigorousness violations (first: %a)@," Site.pp s (List.length vs)
             Rigorous.pp_violation (List.hd vs))
       v.rigorous_violations);
  (match t.sg_cycle with
  | None -> Fmt.pf ppf "SG(C(H)): acyclic@,"
  | Some c -> Fmt.pf ppf "SG(C(H)): cycle %a@," Fmt.(list ~sep:(any " -> ") Txn.pp) c);
  (match v.cg_cycle with
  | None -> Fmt.pf ppf "CG(C(H)): acyclic@,"
  | Some c -> Fmt.pf ppf "CG(C(H)): cycle %a  [local view distortion possible]@," Fmt.(list ~sep:(any " -> ") Txn.pp) c);
  (match v.distortions with
  | [] -> Fmt.pf ppf "global view distortions: none@,"
  | ds -> List.iter (fun d -> Fmt.pf ppf "%a@," Anomaly.pp_global d) ds);
  (match v.value_mismatches with
  | [] -> Fmt.pf ppf "value consistency: trace and execution agree@,"
  | ms -> Fmt.pf ppf "value consistency: %d MISMATCHES (first: %a)@," (List.length ms) Values.pp_mismatch (List.hd ms));
  (match v.torn with
  | [] -> ()
  | x :: _ as ts -> Fmt.pf ppf "atomic commitment: %d TORN globals (first: %a)@," (List.length ts) Txn.pp x);
  Fmt.pf ppf "related-work criterion: %a@," Quasi.pp_verdict t.quasi;
  Fmt.pf ppf "verdict: %a@]" View.pp_decision v.view
