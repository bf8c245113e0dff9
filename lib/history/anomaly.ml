(* Detectors for the paper's two anomaly classes.

   Global view distortion (§4): a resubmitted local subtransaction T^i_kj
   (j > 0) gets another view — reads the same item from a different
   transaction — or, in the worst case, another decomposition than the
   original T^i_k0. Detected by comparing, per (transaction, site), the
   footprints and reads-from of all incarnations.

   Local view distortion (§5): local transactions get non-serializable
   views because local commits of global transactions occur in opposite
   orders at different sites. Possible only if the commit order graph of
   the committed projection is cyclic, so the detector reports CG cycles;
   an exact view-serializability refutation is available for small
   histories through {!View}. *)

open Hermes_kernel

type global_distortion = {
  txn : Txn.t;
  site : Site.t;
  inc_base : int;  (* the original incarnation compared against *)
  inc_other : int;  (* the diverging resubmission *)
  reason : [ `Different_view of Item.t | `Different_decomposition ];
}

let pp_global ppf d =
  let reason ppf = function
    | `Different_view item -> Fmt.pf ppf "reads %a from a different transaction" Item.pp item
    | `Different_decomposition -> Fmt.string ppf "has a different decomposition"
  in
  Fmt.pf ppf "global view distortion: %a at site %a, incarnation %d %a than incarnation %d" Txn.pp d.txn
    Site.pp d.site d.inc_other reason d.reason d.inc_base

(* The footprint of an incarnation: its DML operations in order, reads
   annotated with the logical transaction they read from. The replay lists
   its reads in history order, one per Read operation, so one walk over
   the history paired with that list annotates every read. Keyed by
   incarnation, so a comparison looks its two footprints up directly. *)
type step = { kind : Op.kind; item : Item.t; from : Txn.t option }

let footprint_table h =
  let reads = ref (Replay.run h).Replay.reads in
  let foot : (Txn.Incarnation.t, step list ref) Hashtbl.t = Hashtbl.create 16 in
  History.iteri
    (fun _ op ->
      match op with
      | Op.Dml { kind; inc; item; _ } ->
          let steps =
            match Hashtbl.find_opt foot inc with
            | Some r -> r
            | None ->
                let r = ref [] in
                Hashtbl.replace foot inc r;
                r
          in
          let from =
            match (kind, !reads) with
            | Op.Write, _ -> None
            | Op.Read, r :: rest ->
                reads := rest;
                Option.map (fun (w : Txn.Incarnation.t) -> w.txn) r.Replay.from
            | Op.Read, [] -> invalid_arg "Anomaly.footprints: replay lost a read"
          in
          steps := { kind; item; from } :: !steps
      | _ -> ())
    h;
  foot

let footprints h = Hashtbl.fold (fun inc steps acc -> (inc, List.rev !steps) :: acc) (footprint_table h) []

(* Compare all resubmissions against the first incarnation present.

   A resubmission that was itself unilaterally aborted partway replayed
   only a *prefix* of the subtransaction's commands; that is not a
   distortion as long as the prefix's decomposition and views agree with
   the original. A *committed* incarnation, by contrast, replayed
   everything and must agree exactly.

   Only subtransactions with two or more incarnations can diverge, so they
   are listed first; a history without any skips the replay. *)
let global_view_distortions h =
  let resubmitted =
    List.concat_map
      (fun txn ->
        if not (Txn.is_global txn) then []
        else
          List.filter_map
            (fun site ->
              match History.incarnations_at h txn ~site with
              | base :: (_ :: _ as rest) -> Some (txn, site, base, rest)
              | [] | [ _ ] -> None)
            (History.sites_of_txn h txn))
      (History.txns h)
  in
  if resubmitted = [] then []
  else
    let foot = footprint_table h in
    let lookup txn site inc =
      Option.map (fun steps -> List.rev !steps) (Hashtbl.find_opt foot (Txn.Incarnation.make ~txn ~site ~inc))
    in
    let shapes l = List.map (fun s -> (s.kind, s.item)) l in
    (* l1 a prefix of l2 *)
    let rec is_prefix = function
      | [], _ -> true
      | _, [] -> false
      | x :: xs, y :: ys -> Stdlib.( = ) x y && is_prefix (xs, ys)
    in
    List.concat_map
      (fun (txn, site, base, rest) ->
        match lookup txn site base with
        | None -> []
        | Some base_steps ->
            let base_shapes = shapes base_steps in
            List.concat_map
              (fun k ->
                let distortion reason = { txn; site; inc_base = base; inc_other = k; reason } in
                let steps = Option.value ~default:[] (lookup txn site k) in
                let committed = History.locally_committed h (Txn.Incarnation.make ~txn ~site ~inc:k) in
                let shape_ok =
                  if committed then shapes steps = base_shapes else is_prefix (shapes steps, base_shapes)
                in
                if not shape_ok then [ distortion `Different_decomposition ]
                else
                  (* Views must agree on the common (prefix) length: walk
                     both footprints in step. *)
                  let rec views acc = function
                    | (s : step) :: ss, (b : step) :: bs ->
                        let acc =
                          if s.kind = Op.Read && not (Stdlib.( = ) s.from b.from) then
                            distortion (`Different_view s.item) :: acc
                          else acc
                        in
                        views acc (ss, bs)
                    | _ -> List.rev acc
                  in
                  views [] (steps, base_steps))
              rest)
      resubmitted

(* Local view distortion is *possible* only if CG(C(H)) is cyclic
   (paper §5.1); the cycle is the diagnostic. *)
let commit_order_cycle h = Commit_order_graph.find_cycle h

let has_global_view_distortion h = global_view_distortions h <> []
