(* The combined verification report for a recorded history.

   [analyze] computes the extended committed projection and runs every
   checker the theory provides. For histories small enough, view
   serializability is decided exactly; otherwise correctness is judged by
   the paper's sufficient criterion (Theorem 19 of the companion report,
   restated in §5.1): local rigorousness + no global view distortion +
   acyclic CG(C(H)) imply view serializability of H. *)

open Hermes_kernel

type t = {
  n_txns : int;
  n_global : int;
  n_local : int;
  n_ops : int;
  rigorous_violations : (Site.t * Rigorous.violation list) list;
  sg_cycle : Txn.t list option;
  cg_cycle : Txn.t list option;
  global_distortions : Anomaly.global_distortion list;
  view : View.decision;
  quasi : Quasi.verdict;
  value_mismatches : Values.mismatch list;  (* trace-vs-execution cross-check *)
}

let analyze ?(vsr_limit = 10) h =
  let c = Committed.extended h in
  (* SG(C(H)) is built once for the cycle search and the QSR verdict. *)
  let sg = Serialization_graph.build c in
  {
    n_txns = List.length (History.txns c);
    n_global = List.length (History.global_txns c);
    n_local = List.length (History.local_txns c);
    n_ops = History.length c;
    rigorous_violations = Rigorous.check_all_sites h;
    sg_cycle = Serialization_graph.G.find_cycle sg;
    cg_cycle = Commit_order_graph.find_cycle c;
    global_distortions = Anomaly.global_view_distortions c;
    view = View.view_serializable ~limit:vsr_limit c;
    quasi = Quasi.of_graph sg;
    value_mismatches = Values.check h;
  }

let rigorous t = List.for_all (fun (_, vs) -> vs = []) t.rigorous_violations

(* Is the history certainly view serializable? Either decided exactly, or
   established via the paper's sufficient criterion. *)
let serializable t =
  match t.view with
  | View.Serializable _ -> true
  | View.Not_serializable -> false
  | View.Too_large -> rigorous t && t.global_distortions = [] && t.cg_cycle = None

let ok t =
  serializable t && t.global_distortions = [] && t.cg_cycle = None && rigorous t
  && t.value_mismatches = []

let pp ppf t =
  Fmt.pf ppf "@[<v>committed projection: %d txns (%d global, %d local), %d ops@," t.n_txns t.n_global
    t.n_local t.n_ops;
  (if rigorous t then Fmt.pf ppf "local histories: rigorous at all sites@,"
   else
     List.iter
       (fun (s, vs) ->
         if vs <> [] then
           Fmt.pf ppf "site %a: %d rigorousness violations (first: %a)@," Site.pp s (List.length vs)
             Rigorous.pp_violation (List.hd vs))
       t.rigorous_violations);
  (match t.sg_cycle with
  | None -> Fmt.pf ppf "SG(C(H)): acyclic@,"
  | Some c -> Fmt.pf ppf "SG(C(H)): cycle %a@," Fmt.(list ~sep:(any " -> ") Txn.pp) c);
  (match t.cg_cycle with
  | None -> Fmt.pf ppf "CG(C(H)): acyclic@,"
  | Some c -> Fmt.pf ppf "CG(C(H)): cycle %a  [local view distortion possible]@," Fmt.(list ~sep:(any " -> ") Txn.pp) c);
  (match t.global_distortions with
  | [] -> Fmt.pf ppf "global view distortions: none@,"
  | ds -> List.iter (fun d -> Fmt.pf ppf "%a@," Anomaly.pp_global d) ds);
  (match t.value_mismatches with
  | [] -> Fmt.pf ppf "value consistency: trace and execution agree@,"
  | ms -> Fmt.pf ppf "value consistency: %d MISMATCHES (first: %a)@," (List.length ms) Values.pp_mismatch (List.hd ms));
  Fmt.pf ppf "related-work criterion: %a@," Quasi.pp_verdict t.quasi;
  Fmt.pf ppf "verdict: %a@]" View.pp_decision t.view
