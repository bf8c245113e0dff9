(* The verdict on a recorded history: the paper's sufficient criterion
   over C(H) (rigorous sites, no global view distortion, acyclic CG),
   value consistency of the trace, and atomicity — a globally committed
   transaction whose final incarnation never committed locally at some
   involved site is torn. A lying agent's dropped commit and an
   equivocator's rolled-back half land there, invisible to the
   serializability checks (C(H) leaves incomplete transactions out). *)

open Hermes_kernel

type t = {
  distortions : Anomaly.global_distortion list;
  cg_cycle : Txn.t list option;
  rigorous_violations : (Site.t * Rigorous.violation list) list;
  value_mismatches : Values.mismatch list;
  torn : Txn.t list;
}

let check h =
  let c = Committed.extended h in
  {
    distortions = Anomaly.global_view_distortions c;
    cg_cycle = Commit_order_graph.find_cycle c;
    rigorous_violations = Rigorous.check_all_sites h;
    value_mismatches = Values.check h;
    torn =
      List.filter
        (fun t -> History.is_globally_committed h t && not (History.is_complete h t))
        (History.global_txns h);
  }

let ok t =
  t.distortions = [] && t.cg_cycle = None
  && List.for_all (fun (_, vs) -> vs = []) t.rigorous_violations
  && t.value_mismatches = [] && t.torn = []
