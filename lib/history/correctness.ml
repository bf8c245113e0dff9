(* The verdict on a recorded history: the paper's sufficient criterion
   over C(H) (rigorous sites, no global view distortion, acyclic CG), the
   exact view-serializability decision for a small C(H), value
   consistency of the trace, and atomicity — a globally committed
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
  view : View.decision;
}

(* The exact search decides a C(H) of ten transactions in about 50 us;
   beyond that the sufficient criterion stands alone. *)
let vsr_limit = 10

(* One pass over H's code column gives C(H) and the torn globals: a
   global transaction is torn exactly when it committed and C(H) does
   not keep it. *)
let check_projection h =
  let committed, kept = Committed.flags h in
  let c = History.restrict h ~keep:kept in
  let txns = (History.index h).txns in
  let torn = ref [] in
  for x = Array.length txns - 1 downto 0 do
    if Txn.is_global txns.(x) && committed.(x) && not kept.(x) then torn := txns.(x) :: !torn
  done;
  ( {
      distortions = Anomaly.global_view_distortions c;
      cg_cycle = Commit_order_graph.find_cycle c;
      rigorous_violations = Rigorous.check_all_sites h;
      value_mismatches = Values.check h;
      torn = !torn;
      view =
        (if Array.length (History.index c).txns > vsr_limit then View.Too_large
         else View.view_serializable ~limit:vsr_limit c);
    },
    c )

let check h = fst (check_projection h)
let rigorous t = List.for_all (fun (_, vs) -> vs = []) t.rigorous_violations
let criterion t = rigorous t && t.distortions = [] && t.cg_cycle = None

let serializable t =
  match t.view with
  | View.Serializable _ -> true
  | View.Not_serializable -> false
  | View.Too_large -> criterion t

let ok t = criterion t && serializable t && t.value_mismatches = [] && t.torn = []
