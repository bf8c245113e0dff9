(* Tests for hermes.history: the paper's own histories H1 (global view
   distortion), H2 (local view distortion through a direct conflict), a
   reconstruction of H3 (local view distortion through indirect conflicts
   only — the Fig. 2 transactions T5/T6/L7/L8), and the §5.3
   COMMIT-overtakes-PREPARE race, plus unit and property tests for the
   checkers themselves. *)

open Hermes_kernel
open Hermes_history
module Quasi = Hermes_history.Quasi

let a = Site.of_int 0
let b = Site.of_int 1
let g n = Txn.global n
let inc txn site k = Txn.Incarnation.make ~txn ~site ~inc:k
let item site table = Item.make ~site ~table ~key:0
let r i it = Op.read ~inc:i ~item:it ~from:None ()
let w i it = Op.write ~inc:i ~item:it ()
let lc i = Op.Local_commit i
let la i = Op.Local_abort i
let p txn site = Op.Prepare { txn; site; sn = None }
let gc txn = Op.Global_commit txn

(* Items at sites a and b, named as in the paper. *)
let xa = item a "X"
let ya = item a "Y"
let qa = item a "Q"
let ua = item a "U"
let zb = item b "Z"

(* ------------------------------------------------------------------ *)
(* H1 (paper §3): T1's subtransaction at a is unilaterally aborted after
   the global commit, then resubmitted; meanwhile T2 updates X^a and
   deletes Y^a, so the resubmitted T^a_11 reads X^a from T2 and has a
   different decomposition. *)
(* ------------------------------------------------------------------ *)

let t1 = g 1
let t2 = g 2
let i10a = inc t1 a 0
let i11a = inc t1 a 1
let i10b = inc t1 b 0
let i20a = inc t2 a 0
let i20b = inc t2 b 0

let h1 =
  History.of_ops
    [
      r i10a xa; r i10a ya; w i10a ya; r i10b zb; w i10b zb;
      p t1 a; p t1 b; gc t1;
      la i10a; lc i10b;
      w i20a ya; r i20a xa; w i20a xa; r i20b zb; w i20b zb;
      p t2 a; p t2 b; gc t2;
      lc i20a; lc i20b;
      (* Resubmission: Y^a was deleted by T2's update... in the paper T2
         deleted Y^a; here the changed decomposition is a lone read. *)
      r i11a xa; lc i11a;
    ]

let test_h1_committed_projection () =
  let c = Committed.extended h1 in
  Alcotest.(check int) "both transactions kept" 2 (List.length (History.txns c));
  Alcotest.(check bool) "aborted incarnation retained" true
    (History.exists (fun op -> Op.equal op (la i10a)) c);
  let classical = Committed.classical h1 in
  Alcotest.(check bool) "classical drops the aborted incarnation" false
    (History.exists (fun op -> Op.equal op (r i10a xa)) classical)

let test_h1_complete () =
  Alcotest.(check bool) "T1 committed" true (History.is_globally_committed h1 t1);
  Alcotest.(check bool) "T1 complete" true (History.is_complete h1 t1);
  Alcotest.(check (list int)) "T1 incarnations at a" [ 0; 1 ] (History.incarnations_at h1 t1 ~site:a);
  Alcotest.(check (list int)) "T1 incarnations at b" [ 0 ] (History.incarnations_at h1 t1 ~site:b)

let test_h1_locally_rigorous () =
  (* The paper stresses H1's site projections are locally fine — the
     distortion is invisible to the LTMs. *)
  Alcotest.(check bool) "all sites rigorous" true (Rigorous.all_sites_rigorous h1)

let test_h1_global_view_distortion () =
  let ds = Anomaly.global_view_distortions (Committed.extended h1) in
  Alcotest.(check bool) "detected" true (ds <> []);
  let d = List.hd ds in
  Alcotest.(check bool) "on T1" true (Txn.equal d.Anomaly.txn t1);
  Alcotest.(check bool) "at site a" true (Site.equal d.Anomaly.site a);
  Alcotest.(check bool) "different decomposition" true (d.Anomaly.reason = `Different_decomposition)

let test_h1_not_view_serializable () =
  match View.view_serializable (Committed.extended h1) with
  | View.Not_serializable -> ()
  | other -> Alcotest.failf "expected Not_serializable, got %a" View.pp_decision other

let test_h1_classical_is_serializable () =
  (* The paper: H1(^a) "would be locally serializable in the traditional
     sense", where the classical committed projection keeps only the R/W
     operations following A^a_10 — the anomaly is invisible to the local
     scheduler. *)
  match View.view_serializable (Projection.site (Committed.classical h1) a) with
  | View.Serializable _ -> ()
  | other -> Alcotest.failf "expected Serializable, got %a" View.pp_decision other

let test_h1_sg_cyclic () =
  Alcotest.(check bool) "SG(C(H1)) has a cycle" true
    (Serialization_graph.find_cycle (Committed.extended h1) <> None)

(* ------------------------------------------------------------------ *)
(* H2 (paper §5.1): local transaction L4 at site a reads Q^a from T3 and
   Y^a from T_0, while T3 read Z^b from T1 — local commits of T1 and T3
   are in opposite orders at sites a and b. *)
(* ------------------------------------------------------------------ *)

let t3 = g 3
let l4 = Txn.local ~site:a ~n:4
let i30a = inc t3 a 0
let i30b = inc t3 b 0
let i4 = inc l4 a 0

let h2 =
  History.of_ops
    [
      r i10a xa; r i10a ya; w i10a ya; r i10b zb; w i10b zb;
      p t1 a; p t1 b; gc t1;
      la i10a; lc i10b;
      r i30b zb; r i30a qa; w i30a qa;
      p t3 a; p t3 b; gc t3;
      lc i30a; lc i30b;
      r i4 qa; r i4 ya; w i4 ua; lc i4;
      r i11a xa; r i11a ya; w i11a ya; lc i11a;
    ]

let test_h2_cg_cyclic () =
  match Anomaly.commit_order_cycle (Committed.extended h2) with
  | Some cycle ->
      Alcotest.(check bool) "cycle involves T1 and T3" true
        (List.exists (Txn.equal t1) cycle && List.exists (Txn.equal t3) cycle)
  | None -> Alcotest.fail "expected CG cycle"

let test_h2_not_view_serializable () =
  match View.view_serializable (Committed.extended h2) with
  | View.Not_serializable -> ()
  | other -> Alcotest.failf "expected Not_serializable, got %a" View.pp_decision other

let test_h2_no_global_distortion () =
  (* H2 is a pure *local* view distortion: T1's resubmission got the same
     view and decomposition. *)
  Alcotest.(check bool) "no global distortion" true
    (Anomaly.global_view_distortions (Committed.extended h2) = [])

let test_h2_l4_views () =
  (* Verify the paper's reads-from claims: L4 reads Q^a from T3 and Y^a
     from T_0. *)
  let outcome = Replay.run (Committed.extended h2) in
  let reads = Replay.logical_reads outcome in
  let find it =
    List.find_map
      (fun (rd : Replay.logical_read) ->
        if Txn.Incarnation.equal rd.l_reader i4 && Item.equal rd.l_item it then Some rd.l_from else None)
      reads
  in
  Alcotest.(check bool) "Qa from T3" true (find qa = Some (Some t3));
  Alcotest.(check bool) "Ya from T0" true (find ya = Some None)

let test_h2_rigorous () = Alcotest.(check bool) "rigorous" true (Rigorous.all_sites_rigorous h2)

(* ------------------------------------------------------------------ *)
(* H3 (paper §5.1, reconstructed): T5 and T6 have *no* direct conflicts
   (disjoint items), but local transactions L7 (site a) and L8 (site b)
   conflict with both; T5's subtransaction at a aborts unilaterally after
   the global commit and is resubmitted late, so local commits end up in
   opposite orders and L7/L8 get non-serializable views. *)
(* ------------------------------------------------------------------ *)

let t5 = g 5
let t6 = g 6
let l7 = Txn.local ~site:a ~n:7
let l8 = Txn.local ~site:b ~n:8
let i50a = inc t5 a 0
let i51a = inc t5 a 1
let i50b = inc t5 b 0
let i60a = inc t6 a 0
let i60b = inc t6 b 0
let i7 = inc l7 a 0
let i8 = inc l8 b 0
let ub = item b "U"
let vb = item b "V"

let h3 =
  History.of_ops
    [
      w i50a xa; w i50b ub;
      p t5 a; p t5 b; gc t5;
      lc i50b; la i50a;
      r i8 ub; r i8 vb; lc i8;
      w i60a ya; w i60b vb;
      p t6 a; p t6 b; gc t6;
      lc i60a; lc i60b;
      r i7 ya; r i7 xa; lc i7;
      w i51a xa; lc i51a;
    ]

let test_h3_no_direct_conflict () =
  (* T5 and T6 touch disjoint items — the defining feature of H3. *)
  let items_of txn =
    History.ops_of_txn h3 txn |> List.filter_map Op.item |> List.sort_uniq Item.compare
  in
  let i5 = items_of t5 and i6 = items_of t6 in
  Alcotest.(check bool) "disjoint" true (List.for_all (fun x -> not (List.exists (Item.equal x) i6)) i5)

let test_h3_cg_cyclic () =
  Alcotest.(check bool) "CG cycle" true (Anomaly.commit_order_cycle (Committed.extended h3) <> None)

let test_h3_not_view_serializable () =
  match View.view_serializable (Committed.extended h3) with
  | View.Not_serializable -> ()
  | other -> Alcotest.failf "expected Not_serializable, got %a" View.pp_decision other

let test_h3_rigorous () = Alcotest.(check bool) "rigorous" true (Rigorous.all_sites_rigorous h3)

let test_h3_no_global_distortion () =
  Alcotest.(check bool) "no global distortion" true
    (Anomaly.global_view_distortions (Committed.extended h3) = [])

(* ------------------------------------------------------------------ *)
(* The §5.3 race: COMMIT of T_k overtakes PREPARE of T_j at site b, so
   commits happen in opposite orders — CG(H_x) is cyclic. *)
(* ------------------------------------------------------------------ *)

let hx =
  let tj = g 1 and tk = g 2 in
  let ja = inc tj a 0 and jb = inc tj b 0 in
  let ka = inc tk a 0 and kb = inc tk b 0 in
  History.of_ops
    [
      p tj a; p tk a; p tk b;
      lc kb;  (* COMMIT(Tk) arrived at b before PREPARE(Tj) *)
      p tj b;
      lc ja; lc ka;  (* at a: Tj then Tk *)
      lc jb;  (* at b: Tk then Tj *)
      gc tj; gc tk;
    ]

let test_hx_cg_cyclic () =
  Alcotest.(check bool) "CG cycle from overtaking" true (Commit_order_graph.find_cycle hx <> None)

(* ------------------------------------------------------------------ *)
(* History container basics                                            *)
(* ------------------------------------------------------------------ *)

let test_txn_listing () =
  Alcotest.(check int) "h2 txns" 3 (List.length (History.txns h2));
  Alcotest.(check int) "h2 globals" 2 (List.length (History.global_txns h2));
  Alcotest.(check int) "h2 locals" 1 (List.length (History.local_txns h2))

let test_sites_of_txn () =
  let sites = History.sites_of_txn h1 t1 in
  Alcotest.(check int) "T1 spans two sites" 2 (List.length sites)

let test_incomplete_txn () =
  (* Globally committed but the final incarnation never locally commits:
     not complete, so dropped from C(H). *)
  let t9 = g 9 in
  let i9 = inc t9 a 0 in
  let h = History.of_ops [ w i9 xa; p t9 a; gc t9; la i9 ] in
  Alcotest.(check bool) "committed" true (History.is_globally_committed h t9);
  Alcotest.(check bool) "not complete" false (History.is_complete h t9);
  Alcotest.(check int) "dropped from C(H)" 0 (History.length (Committed.extended h))

let test_uncommitted_dropped () =
  let t9 = g 9 in
  let i9 = inc t9 a 0 in
  let h = History.of_ops [ w i9 xa; r i10a xa ] in
  Alcotest.(check int) "nothing committed" 0 (History.length (Committed.extended h))

let test_of_events_sorts () =
  let e op at seq = { History.op; at = Time.of_int at; seq } in
  let ordered = [ e (r i10a xa) 10 1; e (w i10a xa) 20 2; e (lc i10a) 30 0 ] in
  List.iter
    (fun (name, events) ->
      Alcotest.(check bool) name true (History.ops (History.of_events events) = [ r i10a xa; w i10a xa; lc i10a ]))
    [
      ("sorted by time", [ e (lc i10a) 30 0; e (r i10a xa) 10 1; e (w i10a xa) 20 2 ]);
      ("ordered input kept", ordered);
      ("reversed input sorted", List.rev ordered);
    ]

let test_of_events_seq_tie_break () =
  (* Simultaneous events (different sites, equal tick) are ordered by the
     explicit sequence number, independent of list order. *)
  let e op seq = { History.op; at = Time.of_int 10; seq } in
  let expected = [ r i10a xa; r i10b zb; w i10a xa ] in
  let h1 = History.of_events [ e (r i10a xa) 0; e (r i10b zb) 1; e (w i10a xa) 2 ] in
  let h2 = History.of_events [ e (w i10a xa) 2; e (r i10b zb) 1; e (r i10a xa) 0 ] in
  Alcotest.(check bool) "list order irrelevant" true
    (History.ops h1 = expected && History.ops h2 = expected);
  (* an equal-time pair out of seq order, with an earlier event between *)
  let at t op seq = { History.op; at = Time.of_int t; seq } in
  let h3 = History.of_events [ at 10 (w i10a xa) 2; at 5 (r i10a xa) 0; at 10 (r i10b zb) 1 ] in
  Alcotest.(check bool) "equal times ordered by seq" true
    (History.ops h3 = [ r i10a xa; r i10b zb; w i10a xa ])

let test_projection_site () =
  let ha = Projection.site h1 a in
  Alcotest.(check bool) "only site a ops" true
    (List.for_all (fun op -> Op.site op = Some a) (History.ops ha));
  Alcotest.(check bool) "prepare included" true
    (History.exists (fun op -> Op.equal op (p t1 a)) ha);
  let ltm = Projection.ltm h1 a in
  Alcotest.(check bool) "ltm excludes prepare" false
    (History.exists (fun op -> Op.equal op (p t1 a)) ltm)

(* ------------------------------------------------------------------ *)
(* Replay semantics                                                    *)
(* ------------------------------------------------------------------ *)

let test_replay_read_own_write () =
  let i = i10a in
  let h = History.of_ops [ w i xa; r i xa; lc i ] in
  let outcome = Replay.run h in
  match outcome.Replay.reads with
  | [ rd ] -> Alcotest.(check bool) "reads own write" true (rd.Replay.from = Some i)
  | _ -> Alcotest.fail "expected one read"

let test_replay_abort_restores () =
  let h = History.of_ops [ w i10a xa; la i10a; r i20a xa; lc i20a ] in
  let outcome = Replay.run h in
  match outcome.Replay.reads with
  | [ rd ] -> Alcotest.(check bool) "reads T0 after abort" true (rd.Replay.from = None)
  | _ -> Alcotest.fail "expected one read"

let test_replay_occurrences () =
  let h = History.of_ops [ r i10a xa; w i20a xa; lc i20a; r i10a xa ] in
  let outcome = Replay.run h in
  let occs = List.map (fun (rd : Replay.read) -> (rd.occurrence, rd.from)) outcome.Replay.reads in
  Alcotest.(check bool) "occurrence 0 from T0, occurrence 1 from T2" true
    (occs = [ (0, None); (1, Some i20a) ])

let test_replay_uncommitted () =
  let h = History.of_ops [ w i10a xa ] in
  let outcome = Replay.run h in
  Alcotest.(check int) "one dangling writer" 1 (List.length outcome.Replay.uncommitted)

(* ------------------------------------------------------------------ *)
(* View serializability on textbook histories                          *)
(* ------------------------------------------------------------------ *)

let test_view_serializable_simple () =
  (* Interleaved but serializable: T1 and T2 on disjoint items. *)
  let h = History.of_ops [ w i10a xa; w i20a ya; lc i10a; lc i20a; gc t1; gc t2 ] in
  match View.view_serializable h with
  | View.Serializable _ -> ()
  | other -> Alcotest.failf "expected Serializable, got %a" View.pp_decision other

let test_view_lost_update () =
  (* Classic lost update: both read x, then both write it. *)
  let h = History.of_ops [ r i10a xa; r i20a xa; w i10a xa; w i20a xa; lc i10a; lc i20a; gc t1; gc t2 ] in
  match View.view_serializable h with
  | View.Not_serializable -> ()
  | other -> Alcotest.failf "expected Not_serializable, got %a" View.pp_decision other

let test_view_too_large () =
  let ops =
    List.concat_map
      (fun n ->
        let i = inc (g n) a 0 in
        [ w i xa; lc i; gc (g n) ])
      (List.init 9 (fun i -> i + 1))
  in
  match View.view_serializable ~limit:8 (History.of_ops ops) with
  | View.Too_large -> ()
  | other -> Alcotest.failf "expected Too_large, got %a" View.pp_decision other

let test_view_equivalent_reflexive () =
  Alcotest.(check bool) "h2 = h2" true (View.view_equivalent h2 h2);
  Alcotest.(check bool) "h1 <> h2" false (View.view_equivalent h1 h2)

(* ------------------------------------------------------------------ *)
(* Rigorousness checker                                                *)
(* ------------------------------------------------------------------ *)

let test_rigorous_dirty_read () =
  (* W1[x] R2[x] with no termination between: not rigorous (not even
     strict). *)
  let h = History.of_ops [ w i10a xa; r i20a xa; lc i10a; lc i20a ] in
  Alcotest.(check bool) "violation found" false (Rigorous.is_rigorous h)

let test_rigorous_read_then_write () =
  (* R1[x] W2[x] with T1 still active: strict but NOT rigorous — the case
     rigorousness adds over strictness. *)
  let h = History.of_ops [ r i10a xa; w i20a xa; lc i10a; lc i20a ] in
  Alcotest.(check bool) "not rigorous" false (Rigorous.is_rigorous h);
  let h' = History.of_ops [ r i10a xa; lc i10a; w i20a xa; lc i20a ] in
  Alcotest.(check bool) "termination first is fine" true (Rigorous.is_rigorous h')

let test_rigorous_abort_counts () =
  let h = History.of_ops [ w i10a xa; la i10a; w i20a xa; lc i20a ] in
  Alcotest.(check bool) "abort is a termination" true (Rigorous.is_rigorous h)

let test_rigorous_reads_dont_conflict () =
  let h = History.of_ops [ r i10a xa; r i20a xa; lc i10a; lc i20a ] in
  Alcotest.(check bool) "R-R ok" true (Rigorous.is_rigorous h)

(* ------------------------------------------------------------------ *)
(* Serialization & commit-order graphs                                 *)
(* ------------------------------------------------------------------ *)

let test_sg_edges () =
  let h = History.of_ops [ w i10a xa; lc i10a; r i20a xa; lc i20a ] in
  let gph = Serialization_graph.build h in
  Alcotest.(check bool) "T1 -> T2" true (Serialization_graph.G.mem_edge gph t1 t2);
  Alcotest.(check bool) "no T2 -> T1" false (Serialization_graph.G.mem_edge gph t2 t1)

let test_sg_same_txn_no_conflict () =
  (* Two incarnations of the same transaction never conflict. *)
  let h = History.of_ops [ w i10a xa; la i10a; w i11a xa; lc i11a ] in
  let gph = Serialization_graph.build h in
  Alcotest.(check int) "no edges" 0 (Serialization_graph.G.n_edges gph)

let test_cg_acyclic_order () =
  let h = History.of_ops [ lc i10a; lc i10b; lc i20a; lc i20b ] in
  Alcotest.(check bool) "acyclic" true (Commit_order_graph.is_acyclic h);
  match Commit_order_graph.serialization_order h with
  | Some [ x; y ] ->
      Alcotest.(check bool) "T1 first" true (Txn.equal x t1 && Txn.equal y t2)
  | _ -> Alcotest.fail "expected order of two"

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let test_report_h1 () =
  let rep = Report.analyze h1 in
  Alcotest.(check bool) "rigorous" true (Correctness.rigorous rep.Report.verdict);
  Alcotest.(check bool) "distortion reported" true (rep.Report.verdict.Correctness.distortions <> []);
  Alcotest.(check bool) "not ok" false (Report.ok rep);
  Alcotest.(check bool) "not serializable" false (Correctness.serializable rep.Report.verdict)

let test_report_clean () =
  let h = History.of_ops [ w i10a xa; lc i10a; gc t1; r i20a xa; lc i20a; gc t2 ] in
  let rep = Report.analyze h in
  Alcotest.(check bool) "ok" true (Report.ok rep);
  Alcotest.(check bool) "serializable" true (Correctness.serializable rep.Report.verdict)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Any serial history of committed single-incarnation transactions is view
   serializable (the identity order witnesses it). *)
let prop_serial_is_view_serializable =
  QCheck.Test.make ~name:"serial histories are view serializable" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 5) (list_of_size (Gen.int_range 1 4) (pair (int_bound 3) bool)))
    (fun txn_specs ->
      let ops =
        List.concat
          (List.mapi
             (fun n spec ->
               let i = inc (g (n + 1)) a 0 in
               List.map
                 (fun (key, is_write) ->
                   let it = Item.make ~site:a ~table:"X" ~key in
                   if is_write then w i it else r i it)
                 spec
               @ [ lc i; gc (g (n + 1)) ])
             txn_specs)
      in
      match View.view_serializable ~limit:5 (History.of_ops ops) with
      | View.Serializable _ -> true
      | View.Too_large -> true
      | View.Not_serializable -> false)

(* Serial histories of committed transactions are rigorous. *)
let prop_serial_is_rigorous =
  QCheck.Test.make ~name:"serial histories are rigorous" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 5) (list_of_size (Gen.int_range 1 4) (pair (int_bound 3) bool)))
    (fun txn_specs ->
      let ops =
        List.concat
          (List.mapi
             (fun n spec ->
               let i = inc (g (n + 1)) a 0 in
               List.map
                 (fun (key, is_write) ->
                   let it = Item.make ~site:a ~table:"X" ~key in
                   if is_write then w i it else r i it)
                 spec
               @ [ lc i ])
             txn_specs)
      in
      Rigorous.is_rigorous (History.of_ops ops))

(* View equivalence is invariant under swapping adjacent non-conflicting
   DML operations of different transactions. *)
let prop_swap_nonconflicting_preserves_view =
  QCheck.Test.make ~name:"swapping non-conflicting ops preserves the view" ~count:200
    QCheck.(pair (int_bound 100) (int_bound 3))
    (fun (seed, _) ->
      let rng = Rng.create ~seed in
      (* Build a small committed two-transaction history. *)
      let mk n =
        let i = inc (g n) a 0 in
        let steps =
          List.init
            (1 + Rng.int rng ~bound:3)
            (fun _ ->
              let it = Item.make ~site:a ~table:"X" ~key:(Rng.int rng ~bound:4) in
              if Rng.bool rng ~p:0.5 then w i it else r i it)
        in
        (i, steps)
      in
      let i1, s1 = mk 1 and i2, s2 = mk 2 in
      let ops = s1 @ s2 @ [ lc i1; lc i2; gc (g 1); gc (g 2) ] in
      let arr = Array.of_list ops in
      (* Find an adjacent non-conflicting DML pair from different txns. *)
      let swap_at = ref None in
      Array.iteri
        (fun idx op ->
          if !swap_at = None && idx + 1 < Array.length arr then
            let next = arr.(idx + 1) in
            if
              Op.is_dml op && Op.is_dml next
              && (not (Txn.equal (Op.txn op) (Op.txn next)))
              && not (Op.conflicts op next)
            then swap_at := Some idx)
        arr;
      match !swap_at with
      | None -> QCheck.assume_fail ()
      | Some idx ->
          let swapped = Array.copy arr in
          swapped.(idx) <- arr.(idx + 1);
          swapped.(idx + 1) <- arr.(idx);
          View.view_equivalent (History.of_ops (Array.to_list arr)) (History.of_ops (Array.to_list swapped)))

(* The pruned-DFS decider must agree with the naive permutation search on
   random histories — including resubmissions (aborted incarnations kept
   by the extended committed projection), the case the paper's criterion
   is about. Witness orders may differ; each must actually witness. *)
let prop_pruned_vsr_agrees_with_naive =
  QCheck.Test.make ~name:"pruned DFS VSR agrees with naive permutation search" ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n_txns = 1 + Rng.int rng ~bound:6 in
      let dml i n =
        List.init n (fun _ ->
            let it = Item.make ~site:a ~table:"X" ~key:(Rng.int rng ~bound:3) in
            if Rng.bool rng ~p:0.5 then w i it else r i it)
      in
      let stream k =
        let txn = g k in
        let i0 = inc txn a 0 in
        if Rng.bool rng ~p:0.3 then
          (* unilateral abort after the global commit, then resubmission *)
          let i1 = inc txn a 1 in
          dml i0 (1 + Rng.int rng ~bound:2)
          @ [ p txn a; gc txn; la i0 ]
          @ dml i1 (1 + Rng.int rng ~bound:2)
          @ [ lc i1 ]
        else dml i0 (1 + Rng.int rng ~bound:3) @ [ p txn a; gc txn; lc i0 ]
      in
      let streams = Array.init n_txns (fun k -> ref (stream (k + 1))) in
      let total = Array.fold_left (fun n s -> n + List.length !s) 0 streams in
      let ops = ref [] in
      for _ = 1 to total do
        let nonempty = Array.to_list streams |> List.filter (fun s -> !s <> []) in
        let s = List.nth nonempty (Rng.int rng ~bound:(List.length nonempty)) in
        match !s with
        | [] -> assert false
        | op :: rest ->
            ops := op :: !ops;
            s := rest
      done;
      let h = Committed.extended (History.of_ops (List.rev !ops)) in
      let witnesses order = View.view_equivalent (View.serial_of_order h order) h in
      match (View.view_serializable ~limit:6 h, Deciders_reference.view_serializable_naive ~limit:6 h) with
      | View.Serializable o1, View.Serializable o2 -> witnesses o1 && witnesses o2
      | View.Not_serializable, View.Not_serializable -> true
      | View.Too_large, View.Too_large -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Quasi serializability (the related-work [11] criterion)             *)
(* ------------------------------------------------------------------ *)

let test_qsr_h1_h2_h3 () =
  (* The paper's anomaly histories refute QSR too (their SG cycles involve
     globals). *)
  Alcotest.(check bool) "H1 not QSR" false (Quasi.is_quasi_serializable (Committed.extended h1));
  Alcotest.(check bool) "H2 not QSR" false (Quasi.is_quasi_serializable (Committed.extended h2));
  Alcotest.(check bool) "H3 not QSR" false (Quasi.is_quasi_serializable (Committed.extended h3))

let test_qsr_witness_order () =
  let h = History.of_ops [ w i10a xa; lc i10a; gc t1; r i20a xa; lc i20a; gc t2 ] in
  match Quasi.check h with
  | Quasi.Quasi_serializable [ x; y ] ->
      Alcotest.(check bool) "T1 before T2" true (Txn.equal x t1 && Txn.equal y t2)
  | other -> Alcotest.failf "expected witness, got %a" Quasi.pp_verdict other

let test_qsr_blind_writes_gap () =
  (* The classic VSR-not-CSR history (blind writes): r1[x] w2[x] w1[x]
     w3[x]. Its SG is cyclic through T1/T2, so conflict-based criteria —
     QSR included — reject it; view serializability accepts it. This is
     the paper's §3 remark ("SG(H) may be cyclic but H still view
     serializable") and why its Certifier targets the view criterion. *)
  let i30a = inc t3 a 0 in
  let h =
    History.of_ops
      [
        r i10a xa; w i20a xa; w i10a xa; w i30a xa;
        lc i10a; lc i20a; lc i30a; gc t1; gc t2; gc t3;
      ]
  in
  (match View.view_serializable h with
  | View.Serializable _ -> ()
  | other -> Alcotest.failf "expected VSR, got %a" View.pp_decision other);
  Alcotest.(check bool) "SG cyclic" false (View.conflict_serializable h);
  Alcotest.(check bool) "QSR (conflict-based) rejects" false (Quasi.is_quasi_serializable h)

let test_qsr_local_entanglement () =
  (* A global entangled with a local through the extended projection's
     aborted incarnation (the H1 mechanism, local flavour) refutes QSR. *)
  let l9 = Txn.local ~site:a ~n:9 in
  let i9 = inc l9 a 0 in
  let h =
    History.of_ops
      [
        r i10a xa; w i10a ya;  (* G reads x, writes y *)
        Op.Prepare { txn = t1; site = a; sn = None };
        gc t1; la i10a;  (* unilateral abort after global commit *)
        r i9 ya; w i9 xa; lc i9;  (* local writes x after reading old y *)
        r i11a xa; w i11a ya; lc i11a;  (* resubmission reads x from L9 *)
      ]
  in
  let c = Committed.extended h in
  Alcotest.(check bool) "not QSR" false (Quasi.is_quasi_serializable c);
  match Quasi.check c with
  | Quasi.Not_quasi_serializable scc ->
      Alcotest.(check bool) "SCC holds the global and the local" true
        (List.exists (Txn.equal t1) scc && List.exists (Txn.equal l9) scc)
  | Quasi.Quasi_serializable _ -> Alcotest.fail "expected entanglement"

(* Random commit-order structures: per site a random ordering of a random
   subset of transactions, realized as a history of Local_commit ops. The
   scalable greedy cycle check must agree with the materialized reference
   graph. *)
let commit_history_gen =
  QCheck.Gen.(
    let* n_txns = int_range 1 7 in
    let* n_sites = int_range 1 4 in
    let* site_seqs =
      flatten_l
        (List.init n_sites (fun _ ->
             let* perm = shuffle_l (List.init n_txns (fun i -> i + 1)) in
             let* keep = int_range 0 n_txns in
             return (List.filteri (fun i _ -> i < keep) perm)))
    in
    return (n_sites, site_seqs))

let history_of_commit_seqs seqs =
  History.of_ops
    (List.concat
       (List.mapi
          (fun s seq ->
            let site = Site.of_int s in
            List.map (fun n -> lc (inc (g n) site 0)) seq)
          seqs))

module Txn_graph = Hermes_graph.Digraph.Make (Txn)

(* CG(H) materialized, the reference for the greedy emission: per site
   the transactions in order of their first local commit there, and an
   arc from each to every later one in the same sequence. *)
let cg_reference h =
  let seqs = Hashtbl.create 8 in
  History.iteri
    (fun _ op ->
      match op with
      | Op.Local_commit i ->
          let site = i.Txn.Incarnation.site in
          let seq = Option.value ~default:[] (Hashtbl.find_opt seqs site) in
          if not (List.exists (Txn.equal i.txn) seq) then Hashtbl.replace seqs site (i.txn :: seq)
      | _ -> ())
    h;
  let rec arcs acc = function [] -> acc | x :: later -> arcs (List.map (fun y -> (x, y)) later @ acc) later in
  let vertices, edges =
    Hashtbl.fold (fun _ seq (vs, es) -> (seq @ vs, arcs es (List.rev seq))) seqs ([], [])
  in
  Txn_graph.of_edges ~vertices edges

let prop_cg_greedy_matches_reference =
  QCheck.Test.make ~name:"CG greedy cycle check agrees with the materialized graph" ~count:500
    (QCheck.make commit_history_gen)
    (fun (_, seqs) ->
      let h = history_of_commit_seqs seqs in
      let greedy_acyclic = Commit_order_graph.is_acyclic h in
      let reference_acyclic = Txn_graph.is_acyclic (cg_reference h) in
      greedy_acyclic = reference_acyclic)

let prop_cg_order_is_topological =
  QCheck.Test.make ~name:"CG serialization order is a topological order of CG" ~count:500
    (QCheck.make commit_history_gen)
    (fun (_, seqs) ->
      let h = history_of_commit_seqs seqs in
      match Commit_order_graph.serialization_order h with
      | None -> Commit_order_graph.find_cycle h <> None
      | Some order ->
          List.for_all
            (fun (u, v) ->
              let pos x = Option.get (List.find_index (Txn.equal x) order) in
              pos u < pos v)
            (Txn_graph.edges (cg_reference h)))

let prop_cg_cycle_is_real =
  QCheck.Test.make ~name:"CG extracted cycle is an actual cycle" ~count:500
    (QCheck.make commit_history_gen)
    (fun (_, seqs) ->
      let h = history_of_commit_seqs seqs in
      match Commit_order_graph.find_cycle h with
      | None -> true
      | Some cycle ->
          let gph = cg_reference h in
          let n = List.length cycle in
          n > 0
          && List.for_all
               (fun i -> Txn_graph.mem_edge gph (List.nth cycle i) (List.nth cycle ((i + 1) mod n)))
               (List.init n Fun.id))

(* Random small committed histories: single incarnations, one site, all
   committed. CSR (acyclic SG) must imply VSR, extended must contain
   classical, and the committed projection must be idempotent. *)
let committed_history_gen =
  QCheck.Gen.(
    let* n_txns = int_range 1 4 in
    let* ops_per = flatten_l (List.init n_txns (fun _ -> int_range 1 4)) in
    let* raw =
      flatten_l
        (List.concat
           (List.mapi
              (fun t k ->
                List.init k (fun _ ->
                    let* key = int_range 0 2 in
                    let* w = bool in
                    return (t + 1, key, w)))
              ops_per))
    in
    let* order = shuffle_l raw in
    return order)

let history_of_triples order =
  let ops =
    List.map
      (fun (t, key, is_w) ->
        let i = inc (g t) a 0 in
        let it = Item.make ~site:a ~table:"X" ~key in
        if is_w then w i it else r i it)
      order
  in
  let txns = List.sort_uniq Int.compare (List.map (fun (t, _, _) -> t) order) in
  let tails = List.concat_map (fun t -> [ lc (inc (g t) a 0); gc (g t) ]) txns in
  History.of_ops (ops @ tails)

let prop_csr_implies_vsr =
  QCheck.Test.make ~name:"conflict serializable => view serializable" ~count:300
    (QCheck.make committed_history_gen)
    (fun order ->
      QCheck.assume (order <> []);
      let h = history_of_triples order in
      QCheck.assume (View.conflict_serializable h);
      match View.view_serializable ~limit:5 h with
      | View.Serializable _ -> true
      | View.Too_large -> true
      | View.Not_serializable -> false)

let prop_extended_contains_classical =
  QCheck.Test.make ~name:"classical committed projection is a sub-history of extended" ~count:300
    (QCheck.make committed_history_gen)
    (fun order ->
      QCheck.assume (order <> []);
      let h = history_of_triples order in
      let ext = History.ops (Committed.extended h) in
      let cls = History.ops (Committed.classical h) in
      List.length cls <= List.length ext
      && List.for_all (fun op -> List.exists (Op.equal op) ext) cls)

let prop_committed_idempotent =
  QCheck.Test.make ~name:"extended committed projection is idempotent" ~count:300
    (QCheck.make committed_history_gen)
    (fun order ->
      QCheck.assume (order <> []);
      let h = history_of_triples order in
      let once = Committed.extended h in
      let twice = Committed.extended once in
      History.ops once = History.ops twice)

(* ------------------------------------------------------------------ *)
(* The checkers before the dense index                                 *)
(* ------------------------------------------------------------------ *)

(* The history index, C(H), the replay, the value checks and the greedy
   CG as they were before the checkers read one dense index per history:
   a Hashtbl of position lists per transaction, tuple-keyed tables, and
   polymorphic Txn/Incarnation/Item tables. Kept verbatim, reading the
   history through its public API (and with the index rebuilt on every
   query), as the references the index-based checkers must agree with. *)
module Reference = struct
  (* --- History: the per-transaction index and its accessors --- *)

  type index = {
    order : Txn.t list;  (* first-appearance order *)
    positions : (Txn.t, int array) Hashtbl.t;  (* ascending op positions *)
  }

  (* One pass over the history: first-appearance order and the positions of
     every transaction's operations. *)
  let build_index t =
    let positions_rev : (Txn.t, int list ref) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    History.iteri
      (fun i op ->
        let x = Op.txn op in
        match Hashtbl.find_opt positions_rev x with
        | Some l -> l := i :: !l
        | None ->
            Hashtbl.add positions_rev x (ref [ i ]);
            order := x :: !order)
      t;
    let positions = Hashtbl.create (Hashtbl.length positions_rev) in
    Hashtbl.iter
      (fun x l -> Hashtbl.replace positions x (Array.of_list (List.rev !l)))
      positions_rev;
    { order = List.rev !order; positions }

  let index = build_index

  (* Transactions in order of first appearance. *)
  let txns t = (index t).order

  let global_txns t = List.filter Txn.is_global (txns t)
  let local_txns t = List.filter Txn.is_local (txns t)

  let positions_of_txn t x =
    match Hashtbl.find_opt (index t).positions x with Some ps -> ps | None -> [||]

  let fold_ops_of_txn t x f init =
    Array.fold_left (fun acc i -> f acc (History.get t i)) init (positions_of_txn t x)

  let ops_of_txn t x = List.rev (fold_ops_of_txn t x (fun acc op -> op :: acc) [])

  let sites_of_txn t x =
    fold_ops_of_txn t x
      (fun acc op -> match Op.site op with Some s -> Site.Set.add s acc | None -> acc)
      Site.Set.empty
    |> Site.Set.elements

  (* Incarnation indices of [x] at [site], ascending. *)
  let incarnations_at t x ~site =
    fold_ops_of_txn t x
      (fun acc op ->
        match Op.incarnation op with
        | Some inc when Txn.equal inc.Txn.Incarnation.txn x && Site.equal inc.site site ->
            if List.mem inc.inc acc then acc else inc.inc :: acc
        | _ -> acc)
      []
    |> List.sort Int.compare

  let final_incarnation_at t x ~site =
    match List.rev (incarnations_at t x ~site) with
    | [] -> None
    | k :: _ -> Some (Txn.Incarnation.make ~txn:x ~site ~inc:k)

  let is_globally_committed t x =
    match x with
    | Txn.Global _ ->
        fold_ops_of_txn t x
          (fun acc op -> acc || match op with Op.Global_commit y -> Txn.equal x y | _ -> false)
          false
    | Txn.Local _ ->
        fold_ops_of_txn t x
          (fun acc op ->
            acc || match op with Op.Local_commit inc -> Txn.equal inc.Txn.Incarnation.txn x | _ -> false)
          false

  let locally_committed t inc =
    fold_ops_of_txn t inc.Txn.Incarnation.txn
      (fun acc op -> acc || match op with Op.Local_commit j -> Txn.Incarnation.equal inc j | _ -> false)
      false

  let is_complete t x =
    is_globally_committed t x
    && List.for_all
         (fun site ->
           match final_incarnation_at t x ~site with
           | None -> true
           | Some inc -> locally_committed t inc)
         (sites_of_txn t x)

  (* --- Committed: C(H) through tuple-keyed tables --- *)

  module Inc_key = struct
    type t = Txn.t * Site.t * int
  end

  let committed_index h =
    let globally_committed : (Txn.t, unit) Hashtbl.t = Hashtbl.create 64 in
    let committed_inc : (Inc_key.t, unit) Hashtbl.t = Hashtbl.create 64 in
    let max_inc : (Txn.t * Site.t, int) Hashtbl.t = Hashtbl.create 64 in
    History.iteri
      (fun _ op ->
        (match Op.incarnation op with
        | Some inc ->
            let key = (inc.Txn.Incarnation.txn, inc.site) in
            let prev = Option.value ~default:(-1) (Hashtbl.find_opt max_inc key) in
            if inc.inc > prev then Hashtbl.replace max_inc key inc.inc
        | None -> ());
        match op with
        | Op.Global_commit txn -> Hashtbl.replace globally_committed txn ()
        | Op.Local_commit inc ->
            Hashtbl.replace committed_inc (inc.Txn.Incarnation.txn, inc.site, inc.inc) ();
            if Txn.is_local inc.txn then Hashtbl.replace globally_committed inc.txn ()
        | _ -> ())
      h;
    (globally_committed, committed_inc, max_inc)

  let keep_set h =
    let globally_committed, committed_inc, max_inc = committed_index h in
    let keep : (Txn.t, unit) Hashtbl.t = Hashtbl.create 64 in
    let incomplete : (Txn.t, unit) Hashtbl.t = Hashtbl.create 64 in
    Hashtbl.iter
      (fun (t, site) m -> if not (Hashtbl.mem committed_inc (t, site, m)) then Hashtbl.replace incomplete t ())
      max_inc;
    Hashtbl.iter
      (fun txn () -> if not (Hashtbl.mem incomplete txn) then Hashtbl.replace keep txn ())
      globally_committed;
    keep

  let extended h =
    let keep = keep_set h in
    History.filter (fun op -> Hashtbl.mem keep (Op.txn op)) h

  let classical h =
    let c = extended h in
    let aborted : (Inc_key.t, unit) Hashtbl.t = Hashtbl.create 16 in
    History.iteri
      (fun _ op ->
        match op with
        | Op.Local_abort inc -> Hashtbl.replace aborted (inc.Txn.Incarnation.txn, inc.site, inc.inc) ()
        | _ -> ())
      c;
    History.filter
      (fun op ->
        match Op.incarnation op with
        | Some inc -> not (Hashtbl.mem aborted (inc.Txn.Incarnation.txn, inc.site, inc.inc))
        | None -> true)
      c

  (* --- Replay: polymorphic per-item and per-incarnation tables --- *)

  type undo = (Item.t * Txn.Incarnation.t option) list

  let replay h =
    let state : (Item.t, Txn.Incarnation.t option) Hashtbl.t = Hashtbl.create 64 in
    let undos : (Txn.Incarnation.t, undo ref) Hashtbl.t = Hashtbl.create 16 in
    let occurrences : (Txn.Incarnation.t * Item.t, int) Hashtbl.t = Hashtbl.create 64 in
    let reads = ref [] in
    let writer item = match Hashtbl.find_opt state item with Some w -> w | None -> None in
    let undo_of inc =
      match Hashtbl.find_opt undos inc with
      | Some u -> u
      | None ->
          let u = ref [] in
          Hashtbl.replace undos inc u;
          u
    in
    History.iteri
      (fun _ op ->
        match op with
        | Op.Dml { kind = Read; inc; item; _ } ->
            let occ = Option.value ~default:0 (Hashtbl.find_opt occurrences (inc, item)) in
            Hashtbl.replace occurrences (inc, item) (occ + 1);
            reads := { Replay.reader = inc; item; occurrence = occ; from = writer item } :: !reads
        | Op.Dml { kind = Write; inc; item; _ } ->
            let u = undo_of inc in
            u := (item, writer item) :: !u;
            Hashtbl.replace state item (Some inc)
        | Op.Local_abort inc -> (
            match Hashtbl.find_opt undos inc with
            | None -> ()
            | Some u ->
                List.iter (fun (item, before) -> Hashtbl.replace state item before) !u;
                Hashtbl.remove undos inc)
        | Op.Local_commit inc -> Hashtbl.remove undos inc
        | Op.Prepare _ | Op.Global_commit _ | Op.Global_abort _ -> ())
      h;
    let final = Hashtbl.fold Item.Map.add state Item.Map.empty in
    let uncommitted = Hashtbl.fold (fun inc _ acc -> inc :: acc) undos [] in
    { Replay.reads = List.rev !reads; final; uncommitted }

  (* --- Values: (writer, value) cells in polymorphic tables --- *)

  type cell = { writer : Txn.Incarnation.t option; value : int option }

  let check h =
    let state : (Item.t, cell) Hashtbl.t = Hashtbl.create 64 in
    let undos : (Txn.Incarnation.t, (Item.t * cell) list ref) Hashtbl.t = Hashtbl.create 16 in
    let cell item = Option.value ~default:{ writer = None; value = None } (Hashtbl.find_opt state item) in
    let violations = ref [] in
    History.iteri
      (fun index op ->
        match op with
        | Op.Dml { kind = Op.Read; item; from; value; _ } ->
            if value <> None then begin
              let c = cell item in
              let from_ok = Stdlib.( = ) from c.writer in
              let value_ok =
                match (value, c.value) with Some v, Some v' -> v = v' | None, _ | _, None -> true
              in
              if not (from_ok && value_ok) then
                violations :=
                  { Values.read = op; index; expected_from = c.writer; expected_value = c.value }
                  :: !violations
            end
        | Op.Dml { kind = Op.Write; inc; item; value; _ } ->
            let u =
              match Hashtbl.find_opt undos inc with
              | Some u -> u
              | None ->
                  let u = ref [] in
                  Hashtbl.replace undos inc u;
                  u
            in
            u := (item, cell item) :: !u;
            Hashtbl.replace state item { writer = Some inc; value }
        | Op.Local_abort inc -> (
            match Hashtbl.find_opt undos inc with
            | None -> ()
            | Some u ->
                List.iter (fun (item, before) -> Hashtbl.replace state item before) !u;
                Hashtbl.remove undos inc)
        | Op.Local_commit inc -> Hashtbl.remove undos inc
        | Op.Prepare _ | Op.Global_commit _ | Op.Global_abort _ -> ())
      h;
    List.rev !violations

  let final_values h =
    let state : (Item.t, cell) Hashtbl.t = Hashtbl.create 64 in
    let undos : (Txn.Incarnation.t, (Item.t * cell) list ref) Hashtbl.t = Hashtbl.create 16 in
    let cell item = Option.value ~default:{ writer = None; value = None } (Hashtbl.find_opt state item) in
    History.iteri
      (fun _ op ->
        match op with
        | Op.Dml { kind = Op.Write; inc; item; value; _ } ->
            let u =
              match Hashtbl.find_opt undos inc with
              | Some u -> u
              | None ->
                  let u = ref [] in
                  Hashtbl.replace undos inc u;
                  u
            in
            u := (item, cell item) :: !u;
            Hashtbl.replace state item { writer = Some inc; value }
        | Op.Local_abort inc -> (
            match Hashtbl.find_opt undos inc with
            | None -> ()
            | Some u ->
                List.iter (fun (item, before) -> Hashtbl.replace state item before) !u;
                Hashtbl.remove undos inc)
        | Op.Local_commit inc -> Hashtbl.remove undos inc
        | _ -> ())
      h;
    Hashtbl.fold (fun item c acc -> match c.value with Some v -> (item, v) :: acc | None -> acc) state []
    |> List.sort (fun (i1, _) (i2, _) -> Item.compare i1 i2)

  (* --- Commit_order_graph: greedy emission over Txn-keyed tables --- *)

  let commit_sequences h =
    let per_site : (Site.t, Txn.t list ref) Hashtbl.t = Hashtbl.create 8 in
    History.iteri
      (fun _ op ->
        match op with
        | Op.Local_commit inc -> (
            let s = inc.Txn.Incarnation.site in
            match Hashtbl.find_opt per_site s with
            | Some l -> l := inc.txn :: !l
            | None -> Hashtbl.add per_site s (ref [ inc.txn ]))
        | _ -> ())
      h;
    Hashtbl.fold
      (fun _ l acc ->
        let seen = Hashtbl.create 8 in
        let dedup =
          List.filter
            (fun x ->
              if Hashtbl.mem seen x then false
              else begin
                Hashtbl.add seen x ();
                true
              end)
            (List.rev !l)
        in
        Array.of_list dedup :: acc)
      per_site []

  let emit h =
    let seqs = Array.of_list (commit_sequences h) in
    let n_seqs = Array.length seqs in
    let heads = Array.make n_seqs 0 in
    let appears : (Txn.t, int) Hashtbl.t = Hashtbl.create 64 in
    let at_head : (Txn.t, int) Hashtbl.t = Hashtbl.create 64 in
    let bump tbl x d = Hashtbl.replace tbl x (d + Option.value ~default:0 (Hashtbl.find_opt tbl x)) in
    Array.iter (fun seq -> Array.iter (fun x -> bump appears x 1) seq) seqs;
    let total = Hashtbl.length appears in
    let ready = Queue.create () in
    let check_ready x = if Hashtbl.find at_head x = Hashtbl.find appears x then Queue.add x ready in
    Array.iter
      (fun seq ->
        if Array.length seq > 0 then begin
          bump at_head seq.(0) 1;
          check_ready seq.(0)
        end)
      seqs;
    let emitted : (Txn.t, unit) Hashtbl.t = Hashtbl.create 64 in
    let order = ref [] in
    let advance i =
      let seq = seqs.(i) in
      while heads.(i) < Array.length seq && Hashtbl.mem emitted seq.(heads.(i)) do
        heads.(i) <- heads.(i) + 1;
        if heads.(i) < Array.length seq then begin
          let x = seq.(heads.(i)) in
          bump at_head x 1;
          check_ready x
        end
      done
    in
    while not (Queue.is_empty ready) do
      let x = Queue.pop ready in
      if not (Hashtbl.mem emitted x) then begin
        Hashtbl.add emitted x ();
        order := x :: !order;
        for i = 0 to n_seqs - 1 do
          advance i
        done
      end
    done;
    if Hashtbl.length emitted = total then Ok (List.rev !order)
    else begin
      let head_of i = seqs.(i).(heads.(i)) in
      let contains_unemitted i x =
        let seq = seqs.(i) in
        let rec go j = j < Array.length seq && (Txn.equal seq.(j) x || go (j + 1)) in
        go heads.(i)
      in
      let blocker x =
        let rec find i =
          if i >= n_seqs then assert false
          else if
            heads.(i) < Array.length seqs.(i)
            && (not (Txn.equal (head_of i) x))
            && contains_unemitted i x
          then head_of i
          else find (i + 1)
        in
        find 0
      in
      let start =
        let rec find i =
          if i >= n_seqs then assert false
          else if heads.(i) < Array.length seqs.(i) then head_of i
          else find (i + 1)
        in
        find 0
      in
      let seen = Hashtbl.create 16 in
      let rec walk path x =
        if Hashtbl.mem seen x then begin
          let rec take acc = function
            | [] -> acc
            | y :: rest -> if Txn.equal y x then List.rev (y :: acc) else take (y :: acc) rest
          in
          take [] path
        end
        else begin
          Hashtbl.add seen x ();
          walk (x :: path) (blocker x)
        end
      in
      Error (walk [] start)
    end

  let find_cycle h = match emit h with Ok _ -> None | Error cycle -> Some cycle
  let serialization_order h = match emit h with Ok order -> Some order | Error _ -> None
end

(* ------------------------------------------------------------------ *)
(* The interning pass before it stopped hashing                        *)
(* ------------------------------------------------------------------ *)

(* [History]'s index as it was built when every transaction and item went
   through a monomorphic hash table (the item hash folding the table
   name), kept verbatim as the reference the hash-free pass must agree
   with: the same seven columns, and [find] from transaction to id (-1
   when absent). *)
module Index_reference = struct
  type index = {
    txn_of_op : int array;
    inc_of_op : int array;
    item_of_op : int array;
    txns : Txn.t array;
    txn_incs : int array;
    incs : Txn.Incarnation.t array;
    items : Item.t array;
  }

  module Txn_tbl = Hashtbl.Make (struct
    type t = Txn.t

    let equal = Txn.equal
    let hash = function Txn.Global i -> i | Txn.Local { site; n } -> (n * 131) + Site.to_int site
  end)

  module Item_tbl = Hashtbl.Make (struct
    type t = Item.t

    let equal = Item.equal

    let hash it =
      String.fold_left
        (fun h c -> (h * 31) + Char.code c)
        ((Item.key it * 131) + Site.to_int (Item.site it))
        (Item.table it)
  end)

  (* A growable array: ids are handed out as values are first seen. *)
  type 'a vec = { mutable data : 'a array; mutable len : int }

  let vec () = { data = [||]; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let data = Array.make (max 16 (2 * v.len)) x in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1;
    v.len - 1

  (* [ids] maps old ids to new ones or -1; the inverse, for [n] new ids. *)
  let invert ids n =
    let old = Array.make n 0 in
    Array.iteri (fun o k -> if k >= 0 then old.(k) <- o) ids;
    old

  (* One pass interns every transaction and item through a monomorphic
     table, and every incarnation through the (few) incarnations already
     seen for its transaction. The incarnations are then renumbered in
     (transaction id, site, incarnation) order. *)
  let build ops =
    let n = Array.length ops in
    let txn_of_op = Array.make n 0 and inc_of_op = Array.make n (-1) and item_of_op = Array.make n (-1) in
    let txn_ids = Txn_tbl.create (1 + (n / 8)) and item_ids = Item_tbl.create (1 + (n / 64)) in
    let txns = vec () and items = vec () and incs = vec () in
    let incs_of_txn = vec () in
    let intern_inc x (inc : Txn.Incarnation.t) =
      let rec find = function
        | [] ->
            let j = push incs inc in
            incs_of_txn.data.(x) <- j :: incs_of_txn.data.(x);
            j
        | j :: rest ->
            let k : Txn.Incarnation.t = incs.data.(j) in
            if k == inc || (Int.equal k.inc inc.inc && Site.equal k.site inc.site) then j else find rest
      in
      find incs_of_txn.data.(x)
    in
    Array.iteri
      (fun i op ->
        let x =
          let txn = Op.txn op in
          match Txn_tbl.find txn_ids txn with
          | x -> x
          | exception Not_found ->
              let x = push txns txn in
              ignore (push incs_of_txn []);
              Txn_tbl.add txn_ids txn x;
              x
        in
        txn_of_op.(i) <- x;
        match op with
        | Op.Dml { inc; item; _ } ->
            inc_of_op.(i) <- intern_inc x inc;
            item_of_op.(i) <-
              (match Item_tbl.find item_ids item with
              | k -> k
              | exception Not_found ->
                  let k = push items item in
                  Item_tbl.add item_ids item k;
                  k)
        | Op.Local_commit inc | Op.Local_abort inc -> inc_of_op.(i) <- intern_inc x inc
        | Op.Prepare _ | Op.Global_commit _ | Op.Global_abort _ -> ())
      ops;
    (* Each transaction's incarnations are laid out from its offset in
       [order] and sorted there by insertion: a transaction has a handful. *)
    let n_txns = txns.len in
    let txn_incs = Array.make (n_txns + 1) 0 and order = Array.make incs.len 0 in
    let before j j' =
      let a : Txn.Incarnation.t = incs.data.(j) and b : Txn.Incarnation.t = incs.data.(j') in
      match Site.compare a.site b.site with 0 -> a.inc < b.inc | c -> c < 0
    in
    for x = 0 to n_txns - 1 do
      let first = txn_incs.(x) in
      let next =
        List.fold_left
          (fun p j ->
            order.(p) <- j;
            p + 1)
          first incs_of_txn.data.(x)
      in
      for p = first + 1 to next - 1 do
        let j = order.(p) and q = ref p in
        while !q > first && before j order.(!q - 1) do
          order.(!q) <- order.(!q - 1);
          decr q
        done;
        order.(!q) <- j
      done;
      txn_incs.(x + 1) <- next
    done;
    let renumber = invert order incs.len in
    Array.iteri (fun i j -> if j >= 0 then inc_of_op.(i) <- renumber.(j)) inc_of_op;
    let ix =
      {
        txn_of_op;
        inc_of_op;
        item_of_op;
        txns = Array.sub txns.data 0 n_txns;
        txn_incs;
        incs = Array.map (Array.get incs.data) order;
        items = Array.sub items.data 0 items.len;
      }
    in
    (ix, fun txn -> Option.value ~default:(-1) (Txn_tbl.find_opt txn_ids txn))
end

(* ------------------------------------------------------------------ *)
(* Checkers against their pairwise / list-lookup references            *)
(* ------------------------------------------------------------------ *)

(* The rigorousness rule read literally: every DML pair that conflicts at
   the LTM level (distinct incarnations, same item, at least one write),
   with a rescan of the span between them for a termination of the first
   incarnation. *)
let conflicts_ltm a b =
  match (a, b) with
  | Op.Dml da, Op.Dml db ->
      Item.equal da.item db.item
      && (not (Txn.Incarnation.equal da.inc db.inc))
      && (da.kind = Op.Write || db.kind = Op.Write)
  | _ -> false

let is_termination_of op ~inc =
  match op with Op.Local_commit j | Op.Local_abort j -> Txn.Incarnation.equal inc j | _ -> false

let rigorous_reference h =
  let ops = Array.of_list (History.ops h) in
  let n = Array.length ops in
  let terminated_between i j inc =
    let rec go k = k < j && (is_termination_of ops.(k) ~inc || go (k + 1)) in
    go (i + 1)
  in
  let out = ref [] in
  for i = 0 to n - 1 do
    match ops.(i) with
    | Op.Dml { inc; _ } ->
        for j = i + 1 to n - 1 do
          if conflicts_ltm ops.(i) ops.(j) && not (terminated_between i j inc) then
            out := { Rigorous.first = ops.(i); first_index = i; second = ops.(j); second_index = j } :: !out
        done
    | _ -> ()
  done;
  List.rev !out

let rigorous_all_sites_reference h =
  let sites =
    History.fold
      (fun acc op -> match Op.site op with Some s -> Site.Set.add s acc | None -> acc)
      Site.Set.empty h
  in
  Site.Set.fold (fun s acc -> (s, rigorous_reference (Projection.ltm h s)) :: acc) sites [] |> List.rev

(* Random interleavings of a few incarnations over 2-4 items per site: R/W
   mixes, commits and aborts at random points (so some incarnations never
   terminate and some keep operating after their own termination), and
   prepares, which count toward whole-history indices but not toward the
   LTM projection's. *)
let random_ltm_history rng ~n_sites =
  let n_items = 2 + Rng.int rng ~bound:3 in
  let incs =
    Array.init
      (2 + Rng.int rng ~bound:4)
      (fun k ->
        let site = Site.of_int (Rng.int rng ~bound:n_sites) in
        if Rng.bool rng ~p:0.3 then inc (Txn.local ~site ~n:(k + 1)) site 0
        else inc (g (1 + Rng.int rng ~bound:3)) site (Rng.int rng ~bound:3))
  in
  let ops =
    List.init
      (1 + Rng.int rng ~bound:24)
      (fun _ ->
        let i = incs.(Rng.int rng ~bound:(Array.length incs)) in
        let it = Item.make ~site:i.Txn.Incarnation.site ~table:"X" ~key:(Rng.int rng ~bound:n_items) in
        match Rng.int rng ~bound:10 with
        | 0 -> lc i
        | 1 -> la i
        | 2 -> p i.Txn.Incarnation.txn i.Txn.Incarnation.site
        | k when k < 6 -> r i it
        | _ -> w i it)
  in
  History.of_ops ops

let prop_rigorous_sweep_matches_pairwise =
  QCheck.Test.make ~name:"rigorousness sweep = pairwise rule (one site)" ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let h = random_ltm_history (Rng.create ~seed) ~n_sites:1 in
      Rigorous.violations h = rigorous_reference h)

let prop_rigorous_all_sites_matches_projections =
  QCheck.Test.make ~name:"one-pass check_all_sites = sweep per LTM projection" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let h = random_ltm_history (Rng.create ~seed) ~n_sites:3 in
      Rigorous.violations h = rigorous_reference h
      && Rigorous.check_all_sites h = rigorous_all_sites_reference h)

(* An item that incarnations of two sites touch: the single sweep
   judges the whole history, the per-site check each site's projection
   on its own, where the two operations never meet. *)
let test_rigorous_cross_site_item () =
  let h = History.of_ops [ w i10a zb; r i20b zb; lc i10a; lc i20b ] in
  Alcotest.(check (list (pair int int))) "whole history" [ (0, 1) ]
    (List.map (fun (v : Rigorous.violation) -> (v.first_index, v.second_index)) (Rigorous.violations h));
  Alcotest.(check bool) "= pairwise rule" true (Rigorous.violations h = rigorous_reference h);
  Alcotest.(check bool) "per site: none, = projections" true
    (Rigorous.all_sites_rigorous h && Rigorous.check_all_sites h = rigorous_all_sites_reference h)

(* The two properties' inputs hold what the sweep must get right:
   violations at two or more sites, an operation after its own
   incarnation's termination, a site seen only through a prepare, and a
   prepare between the two operations of a violation, where whole-history
   positions and projection positions part. *)
let test_rigorous_generator_covers () =
  let inputs =
    List.concat_map
      (fun seed ->
        [ random_ltm_history (Rng.create ~seed) ~n_sites:1; random_ltm_history (Rng.create ~seed) ~n_sites:3 ])
      (List.init 300 Fun.id)
  in
  let some name f = Alcotest.(check bool) name true (List.exists f inputs) in
  some "violations at two or more sites" (fun h ->
      List.length (List.filter (fun (_, vs) -> vs <> []) (rigorous_all_sites_reference h)) >= 2);
  some "an operation after its own incarnation's termination" (fun h ->
      let ops = Array.of_list (History.ops h) in
      let after i = function
        | Op.Dml { inc; _ } ->
            let rec go k = k < i && (is_termination_of ops.(k) ~inc || go (k + 1)) in
            go 0
        | _ -> false
      in
      let rec any i = i < Array.length ops && (after i ops.(i) || any (i + 1)) in
      any 0);
  some "a prepare-only site" (fun h ->
      List.exists
        (fun (s, _) ->
          not
            (History.exists
               (fun op ->
                 match Op.incarnation op with Some i -> Site.equal i.Txn.Incarnation.site s | None -> false)
               h))
        (rigorous_all_sites_reference h));
  some "a prepare inside a violation's span" (fun h ->
      let ops = Array.of_list (History.ops h) in
      List.exists
        (fun (v : Rigorous.violation) ->
          let rec go k =
            k < v.second_index && ((match ops.(k) with Op.Prepare _ -> true | _ -> false) || go (k + 1))
          in
          go (v.first_index + 1))
        (rigorous_reference h))

let test_rigorous_projection_indices () =
  (* One violation per site. Whole-history positions are 0->4 and 2->3;
     the per-site report counts positions in the LTM projection, where
     the prepare at a does not occur. *)
  let h =
    History.of_ops
      [ w i10a xa; p t1 a; w i10b zb; r i20b zb; r i20a xa; lc i10a; lc i10b; lc i20a; lc i20b ]
  in
  let show vs = List.map (Fmt.str "%a" Rigorous.pp_violation) vs in
  Alcotest.(check (list (pair int int))) "whole-history indices" [ (0, 4); (2, 3) ]
    (List.map (fun (v : Rigorous.violation) -> (v.first_index, v.second_index)) (Rigorous.violations h));
  match Rigorous.check_all_sites h with
  | [ (sa, va); (sb, vb) ] ->
      Alcotest.(check bool) "sites a, b" true (Site.equal sa a && Site.equal sb b);
      Alcotest.(check (list string)) "site a"
        [ Fmt.str "%a (#0) conflicts with later %a (#1) without intervening termination" Op.pp (w i10a xa) Op.pp
            (r i20a xa) ]
        (show va);
      Alcotest.(check (list string)) "site b"
        [ Fmt.str "%a (#0) conflicts with later %a (#1) without intervening termination" Op.pp (w i10b zb) Op.pp
            (r i20b zb) ]
        (show vb)
  | other -> Alcotest.failf "expected two sites, got %d" (List.length other)

(* Global view distortions as first written: reads-from rebuilt through
   tuple-keyed tables, footprints looked up by a scan of the whole list,
   over the reference replay and accessors. *)
let footprints_reference h =
  let outcome = Reference.replay h in
  let reads_tbl = Hashtbl.create 64 in
  List.iter
    (fun (rd : Replay.logical_read) -> Hashtbl.replace reads_tbl (rd.l_reader, rd.l_item, rd.l_occurrence) rd.l_from)
    (Replay.logical_reads outcome);
  let foot : (Txn.Incarnation.t, Anomaly.step list ref) Hashtbl.t = Hashtbl.create 16 in
  let occ = Hashtbl.create 64 in
  History.iteri
    (fun _ op ->
      match op with
      | Op.Dml { kind; inc; item; _ } ->
          let steps =
            match Hashtbl.find_opt foot inc with
            | Some st -> st
            | None ->
                let st = ref [] in
                Hashtbl.replace foot inc st;
                st
          in
          let from =
            match kind with
            | Op.Write -> None
            | Op.Read ->
                let o = Option.value ~default:0 (Hashtbl.find_opt occ (inc, item)) in
                Hashtbl.replace occ (inc, item) (o + 1);
                Option.join (Hashtbl.find_opt reads_tbl (inc, item, o))
          in
          steps := { Anomaly.kind; item; from } :: !steps
      | _ -> ())
    h;
  Hashtbl.fold (fun inc steps acc -> (inc, List.rev !steps) :: acc) foot []

let distortions_reference h =
  let foots = footprints_reference h in
  let lookup txn site k =
    List.find_map
      (fun ((i : Txn.Incarnation.t), steps) ->
        if Txn.equal i.txn txn && Site.equal i.site site && i.inc = k then Some steps else None)
      foots
  in
  let out = ref [] in
  List.iter
    (fun txn ->
      if Txn.is_global txn then
        List.iter
          (fun site ->
            match Reference.incarnations_at h txn ~site with
            | [] | [ _ ] -> ()
            | base :: rest -> (
                match lookup txn site base with
                | None -> ()
                | Some base_steps ->
                    List.iter
                      (fun k ->
                        let steps = Option.value ~default:[] (lookup txn site k) in
                        let committed = Reference.locally_committed h (inc txn site k) in
                        let shapes l = List.map (fun (s : Anomaly.step) -> (s.kind, s.item)) l in
                        let rec is_prefix = function
                          | [], _ -> true
                          | _, [] -> false
                          | x :: xs, y :: ys -> x = y && is_prefix (xs, ys)
                        in
                        let shape_ok =
                          if committed then shapes steps = shapes base_steps
                          else is_prefix (shapes steps, shapes base_steps)
                        in
                        if not shape_ok then
                          out :=
                            { Anomaly.txn; site; inc_base = base; inc_other = k; reason = `Different_decomposition }
                            :: !out
                        else
                          List.iteri
                            (fun i (s : Anomaly.step) ->
                              let bs = List.nth base_steps i in
                              if s.kind = Op.Read && s.from <> bs.Anomaly.from then
                                out :=
                                  { Anomaly.txn; site; inc_base = base; inc_other = k; reason = `Different_view s.item }
                                  :: !out)
                            steps)
                      rest))
          (Reference.sites_of_txn h txn))
    (Reference.txns h);
  List.rev !out

(* Random histories with resubmission: per (global, site) a command list,
   replayed by up to three incarnations. An incarnation that aborts may
   stop after any prefix; the occasional incarnation runs a different
   decomposition. Locals write the same items between incarnations, so
   interleaving gives resubmissions diverging reads-from. *)
let random_resubmission_history rng =
  let sites = [| a; b |] in
  let item_at site = Item.make ~site ~table:"X" ~key:(Rng.int rng ~bound:3) in
  let command site = (Rng.bool rng ~p:0.5, item_at site) in
  let run i cmds = List.map (fun (is_w, it) -> if is_w then w i it else r i it) cmds in
  let global n =
    let txn = g n in
    let legs =
      List.filter_map
        (fun site -> if Rng.bool rng ~p:0.7 then Some site else None)
        (Array.to_list sites)
    in
    let legs = if legs = [] then [ a ] else legs in
    let leg site =
      let cmds = List.init (1 + Rng.int rng ~bound:3) (fun _ -> command site) in
      let n_incs = 1 + Rng.int rng ~bound:3 in
      List.concat
        (List.init n_incs (fun k ->
             let i = inc txn site k in
             let final = k = n_incs - 1 in
             let cmds =
               if k > 0 && Rng.bool rng ~p:0.15 then List.init (1 + Rng.int rng ~bound:3) (fun _ -> command site)
               else if final then cmds
               else List.filteri (fun j _ -> j < Rng.int rng ~bound:(List.length cmds + 1)) cmds
             in
             run i cmds @ [ (if final then lc i else la i) ]))
    in
    List.concat_map leg legs @ [ gc txn ]
  in
  let local n =
    let site = sites.(Rng.int rng ~bound:2) in
    let i = inc (Txn.local ~site ~n) site 0 in
    run i (List.init (1 + Rng.int rng ~bound:2) (fun _ -> (true, item_at site))) @ [ lc i ]
  in
  let streams =
    Array.of_list
      (List.init (1 + Rng.int rng ~bound:4) (fun k -> ref (global (k + 1)))
      @ List.init (Rng.int rng ~bound:4) (fun k -> ref (local (k + 1))))
  in
  let ops = ref [] in
  let live () = Array.to_list streams |> List.filter (fun s -> !s <> []) in
  let rec go () =
    match live () with
    | [] -> ()
    | l -> (
        let s = List.nth l (Rng.int rng ~bound:(List.length l)) in
        match !s with
        | [] -> ()
        | op :: rest ->
            ops := op :: !ops;
            s := rest;
            go ())
  in
  go ();
  History.of_ops (List.rev !ops)

let sorted_footprints l =
  List.sort (fun (x, _) (y, _) -> Txn.Incarnation.compare x y) l

let prop_distortions_match_reference =
  QCheck.Test.make ~name:"hashed distortion check = list-lookup reference" ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let h = random_resubmission_history (Rng.create ~seed) in
      let c = Committed.extended h in
      Anomaly.global_view_distortions h = distortions_reference h
      && Anomaly.global_view_distortions c = distortions_reference c
      && sorted_footprints (Anomaly.footprints h) = sorted_footprints (footprints_reference h))

(* The generator does produce both kinds of distortion (a property that
   only ever compared empty lists would prove nothing). *)
let test_resubmission_generator_distorts () =
  let reasons =
    List.concat_map
      (fun seed ->
        List.map
          (fun (d : Anomaly.global_distortion) -> d.reason)
          (distortions_reference (random_resubmission_history (Rng.create ~seed))))
      (List.init 300 Fun.id)
  in
  Alcotest.(check bool) "different views" true
    (List.exists (function `Different_view _ -> true | `Different_decomposition -> false) reasons);
  Alcotest.(check bool) "different decompositions" true (List.mem `Different_decomposition reasons)

(* Value annotations for a generated history: a write installs a value
   fixed by its incarnation and item, or none; a read carries the writer
   the reference replay saw and that writer's value, except that about
   one read in five names a wrong writer or a wrong value. So the value
   checks see agreeing and disagreeing reads alike. *)
let with_values rng h =
  let value_of (w : Txn.Incarnation.t) item = 1 + (Hashtbl.hash (Txn.Incarnation.show w, Item.show item) mod 97) in
  let incs =
    Array.of_list (List.sort_uniq Txn.Incarnation.compare (List.filter_map Op.incarnation (History.ops h)))
  in
  let reads = ref (Reference.replay h).Replay.reads in
  History.of_ops
    (List.map
       (fun op ->
         match op with
         | Op.Dml { kind = Op.Write; inc; item; _ } ->
             if Rng.bool rng ~p:0.1 then Op.write ~inc ~item () else Op.write ~value:(value_of inc item) ~inc ~item ()
         | Op.Dml { kind = Op.Read; inc; item; _ } -> (
             let from = (List.hd !reads).Replay.from in
             reads := List.tl !reads;
             let value = Option.fold ~none:0 ~some:(fun w -> value_of w item) from in
             match Rng.int rng ~bound:10 with
             | 0 -> Op.read ~value ~inc ~item ~from:(Some (Rng.choice rng incs)) ()
             | 1 -> Op.read ~value:(value + 1) ~inc ~item ~from ()
             | _ -> Op.read ~value ~inc ~item ~from ())
         | op -> op)
       (History.ops h))

(* Global commits for about two thirds of a history's global
   transactions, appended. Random LTM histories have none; with them,
   some transactions are complete and some are not, as their final
   incarnation at some site did or did not commit. *)
let with_global_commits rng h =
  History.append h
    (History.of_ops
       (List.filter_map
          (fun x -> if Txn.is_global x && Rng.bool rng ~p:0.7 then Some (gc x) else None)
          (Reference.txns h)))

(* Every output the dense index serves, from the checkers on [h] and from
   the references on [r], which must hold the same operations. The
   per-transaction accessors are asked about every transaction and site
   of [r] and about an absent transaction, site and incarnation. *)
let agrees_with_reference ~reference:r h =
  let absent = Txn.global 999 in
  let incs = List.sort_uniq Txn.Incarnation.compare (List.filter_map Op.incarnation (History.ops r)) in
  let outcome (o : Replay.outcome) =
    (o.reads, Item.Map.bindings o.final, List.sort Txn.Incarnation.compare o.uncommitted)
  in
  let same_txn x =
    History.ops_of_txn h x = Reference.ops_of_txn r x
    && History.sites_of_txn h x = Reference.sites_of_txn r x
    && History.is_globally_committed h x = Reference.is_globally_committed r x
    && History.is_complete h x = Reference.is_complete r x
    && List.for_all
         (fun site ->
           History.incarnations_at h x ~site = Reference.incarnations_at r x ~site
           && History.final_incarnation_at h x ~site = Reference.final_incarnation_at r x ~site)
         (Site.of_int 7 :: Reference.sites_of_txn r x)
  in
  History.ops h = History.ops r
  && History.txns h = Reference.txns r
  && History.global_txns h = Reference.global_txns r
  && History.local_txns h = Reference.local_txns r
  && List.for_all same_txn (absent :: Reference.txns r)
  && List.for_all
       (fun i -> History.locally_committed h i = Reference.locally_committed r i)
       (inc absent a 0 :: incs)
  && History.ops (Committed.classical h) = History.ops (Reference.classical r)
  && Commit_order_graph.find_cycle h = Reference.find_cycle r
  && Commit_order_graph.serialization_order h = Reference.serialization_order r
  && Values.check h = Reference.check r
  && Values.consistent h = (Reference.check r = [])
  && Values.final_values h = Reference.final_values r
  && outcome (Replay.run h) = outcome (Reference.replay r)

(* H, C(H) as the index restricts it, and C(H) indexed afresh. *)
let index_matches_reference h =
  let c = Committed.extended h and c_ref = Reference.extended h in
  agrees_with_reference ~reference:h h
  && agrees_with_reference ~reference:c_ref c
  && agrees_with_reference ~reference:c_ref (History.of_ops (History.ops c))

let prop_index_matches_reference_resubmission =
  QCheck.Test.make ~name:"resubmission histories: dense index = the checkers before it" ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      index_matches_reference (with_values rng (random_resubmission_history rng)))

let prop_index_matches_reference_multi_site =
  QCheck.Test.make ~name:"multi-site histories: dense index = the checkers before it" ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      index_matches_reference (with_values rng (with_global_commits rng (random_ltm_history rng ~n_sites:3))))

(* An incarnation writes one item twice and then aborts: its undo chain
   must be restored newest first for the item to get back the writer it
   had before the first of the two writes. *)
let wrote_twice_then_aborted h =
  let writes = Hashtbl.create 16 in
  let forget inc = Hashtbl.filter_map_inplace (fun (j, _) n -> if Txn.Incarnation.equal j inc then None else Some n) writes in
  List.exists
    (fun op ->
      match op with
      | Op.Dml { kind = Op.Write; inc; item; _ } ->
          Hashtbl.replace writes (inc, item) (1 + Option.value ~default:0 (Hashtbl.find_opt writes (inc, item)));
          false
      | Op.Local_abort inc ->
          let twice = Hashtbl.fold (fun (j, _) n acc -> acc || (Txn.Incarnation.equal j inc && n >= 2)) writes false in
          forget inc;
          twice
      | Op.Local_commit inc ->
          forget inc;
          false
      | _ -> false)
    (History.ops h)

(* A read of an item whose writer an abort restored to another
   incarnation, with no write in between. *)
let read_after_restore h =
  let state = Hashtbl.create 16 and undos = Hashtbl.create 16 in
  List.exists
    (fun op ->
      match op with
      | Op.Dml { kind = Op.Read; item; _ } -> (
          match Hashtbl.find_opt state item with Some (Some _, true) -> true | _ -> false)
      | Op.Dml { kind = Op.Write; inc; item; _ } ->
          let before = match Hashtbl.find_opt state item with Some (writer, _) -> writer | None -> None in
          Hashtbl.replace undos inc ((item, before) :: Option.value ~default:[] (Hashtbl.find_opt undos inc));
          Hashtbl.replace state item (Some inc, false);
          false
      | Op.Local_abort inc ->
          List.iter
            (fun (item, before) -> Hashtbl.replace state item (before, true))
            (Option.value ~default:[] (Hashtbl.find_opt undos inc));
          Hashtbl.remove undos inc;
          false
      | Op.Local_commit inc ->
          Hashtbl.remove undos inc;
          false
      | _ -> false)
    (History.ops h)

(* The two properties' inputs hold what the index must get right:
   committed transactions that are incomplete, CG cycles in C(H), and
   value checks that pass and that fail. *)
let test_index_generators_cover () =
  let inputs =
    List.concat_map
      (fun seed ->
        let rng = Rng.create ~seed and rng' = Rng.create ~seed in
        [
          with_values rng (random_resubmission_history rng);
          with_values rng' (with_global_commits rng' (random_ltm_history rng' ~n_sites:3));
        ])
      (List.init 300 Fun.id)
  in
  let some name f = Alcotest.(check bool) name true (List.exists f inputs) in
  some "a committed, incomplete transaction" (fun h ->
      List.exists
        (fun x -> Reference.is_globally_committed h x && not (Reference.is_complete h x))
        (Reference.txns h));
  some "a CG cycle in C(H)" (fun h -> Reference.find_cycle (Reference.extended h) <> None);
  some "an aborted incarnation in C(H)" (fun h ->
      History.exists (function Op.Local_abort _ -> true | _ -> false) (Reference.extended h));
  some "a value mismatch" (fun h -> Reference.check h <> []);
  some "consistent values with reads" (fun h -> Reference.check h = [] && History.exists Op.is_read h);
  some "an abort that restores an item its incarnation wrote twice" wrote_twice_then_aborted;
  some "a read after an abort restored another incarnation's write" read_after_restore

(* A transaction id beyond any hash table's size, a transaction seen only
   through its global abort, a local commit recorded twice at one site,
   and a site where a transaction only prepared. *)
let test_index_edge_cases () =
  let big = Txn.global 1_000_000_000 and t9 = g 9 in
  let ib = inc big a 0 in
  let h =
    History.of_ops
      [ w ib xa; p big a; p big b; lc ib; lc ib; gc big; Op.Global_abort t9; r i20a xa; lc i20a; gc t2 ]
  in
  let c = Committed.extended h in
  let show = List.map Txn.show in
  Alcotest.(check bool) "H agrees with the reference" true (agrees_with_reference ~reference:h h);
  Alcotest.(check bool) "C(H) agrees with the reference" true
    (agrees_with_reference ~reference:(Reference.extended h) c);
  Alcotest.(check (list string)) "H's transactions" [ "T1000000000"; "T9"; "T2" ] (show (History.txns h));
  Alcotest.(check (list string)) "C(H) drops T9" [ "T1000000000"; "T2" ] (show (History.txns c));
  Alcotest.(check (list string)) "the prepare-only site counts" [ "a"; "b" ]
    (List.map Site.show (History.sites_of_txn h big));
  Alcotest.(check (list int)) "but holds no incarnation" [] (History.incarnations_at h big ~site:b);
  Alcotest.(check bool) "complete" true (History.is_complete h big);
  Alcotest.(check (option (list string))) "the duplicate commit orders nothing" (Some [ "T1000000000"; "T2" ])
    (Option.map show (Commit_order_graph.serialization_order c))

(* Operations that reach every path of the hash-free interning: gids and
   local numbers past the direct arrays (4·|H| + 1024 keys), site ids in
   the hundreds and one past the arrays, item keys that are negative, near
   [min_int] or near [max_int], keys near 1 000 at many (site, table)
   pairs, which exhaust the arrays' shared budget, a table name equal to
   another but not physically equal, and the incarnations of a
   transaction interleaved, some rebuilt so that equal incarnations are
   not always physically equal. The index takes any sequence of
   operations, well formed or not. *)
let random_index_history rng =
  let pick a = a.(Rng.int rng ~bound:(Array.length a)) in
  let sites = Array.map Site.of_int [| 0; 1; 2 + Rng.int rng ~bound:3; 100 + Rng.int rng ~bound:400; 700; 1_000_000 |] in
  let numbers = [| 1; 2; 3; 1_000 + Rng.int rng ~bound:20; 5_000 + Rng.int rng ~bound:10; max_int - Rng.int rng ~bound:2 |] in
  let keys = [| 0; 1; 2; -1; -2; min_int; min_int + 1; min_int + 2; max_int; max_int - 1; 1_000; 1_010; 1_020 |] in
  let table () = match Rng.int rng ~bound:3 with 0 -> "X" | 1 -> "Y" | _ -> String.make 1 'X' in
  let txns =
    Array.init
      (1 + Rng.int rng ~bound:5)
      (fun _ -> if Rng.bool rng ~p:0.3 then Txn.local ~site:(pick sites) ~n:(pick numbers) else g (pick numbers))
  in
  let incs =
    Array.init
      (1 + Rng.int rng ~bound:8)
      (fun _ ->
        match pick txns with
        | Txn.Local { site; _ } as txn -> inc txn site 0
        | txn -> inc txn (pick sites) (Rng.int rng ~bound:3))
  in
  let incarnation () =
    let i = pick incs in
    if Rng.bool rng ~p:0.3 then inc i.txn i.site i.inc else i
  in
  History.of_ops
    (List.init (Rng.int rng ~bound:40) (fun _ ->
         let i = incarnation () in
         match Rng.int rng ~bound:10 with
         | 0 -> lc i
         | 1 -> la i
         | 2 -> p i.txn i.site
         | 3 -> if Rng.bool rng ~p:0.5 then gc (pick txns) else Op.Global_abort (pick txns)
         | k ->
             let it = Item.make ~site:i.site ~table:(table ()) ~key:(pick keys) in
             if k < 7 then r i it else w i it))

(* The seven columns, the code column (each operation's {!Op.code}), and
   [find] as the per-transaction accessors see it: a transaction's
   operations are those at the positions the reference gives its id, for
   the history's transactions and for an unseen gid inside and past the
   direct array, a local at an unseen site and an unseen local at site
   a. *)
let index_matches_hashed h =
  let ix = History.index h in
  let ops = History.ops h in
  let ref_ix, ref_find = Index_reference.build (Array.of_list ops) in
  let ops_of x =
    match ref_find x with -1 -> [] | k -> List.filteri (fun i _ -> ref_ix.txn_of_op.(i) = k) ops
  in
  let absent = [ g 7; g 4_000_000; Txn.local ~site:(Site.of_int 999) ~n:1; Txn.local ~site:a ~n:4 ] in
  ix.txn_of_op = ref_ix.txn_of_op
  && ix.inc_of_op = ref_ix.inc_of_op
  && ix.item_of_op = ref_ix.item_of_op
  && ix.txns = ref_ix.txns
  && ix.txn_incs = ref_ix.txn_incs
  && ix.incs = ref_ix.incs
  && ix.items = ref_ix.items
  && ix.code_of_op = Array.of_list (List.map Op.code ops)
  && List.for_all (fun x -> History.ops_of_txn h x = ops_of x) (absent @ Array.to_list ix.txns)

let prop_index_matches_hashed =
  QCheck.Test.make ~name:"hash-free interning = the hashed index before it" ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed -> index_matches_hashed (random_index_history (Rng.create ~seed)))

(* Commit orders for CG against its list-based reference: per site a
   random subset of the global transactions, in an order that about
   half the sites share (sites that share it add no cycle) and the
   others draw each for itself, perhaps with a local transaction, and
   now and then a second local commit of a transaction at a site, of
   the same incarnation or another. The sites' commits are interleaved
   at random, with prepares and global decisions between them. Site ids
   are spread over 0..299; half the histories have 17 to 40 sites, more
   than the reference's 8-bucket site table holds before it resizes. *)
let random_commit_order_history rng =
  let n_sites = if Rng.bool rng ~p:0.5 then 1 + Rng.int rng ~bound:4 else 17 + Rng.int rng ~bound:24 in
  let sites = Array.sub (Rng.shuffle rng (Array.init 300 Site.of_int)) 0 n_sites in
  let n_txns = 1 + Rng.int rng ~bound:8 in
  let shared = Rng.shuffle rng (Array.init n_txns (fun k -> k + 1)) in
  let queues =
    Array.mapi
      (fun s site ->
        let order = if Rng.bool rng ~p:0.5 then shared else Rng.shuffle rng (Array.init n_txns (fun k -> k + 1)) in
        let commits =
          List.concat_map
            (fun n ->
              if Rng.bool rng ~p:0.4 then []
              else
                let i = inc (g n) site 0 in
                if Rng.bool rng ~p:0.1 then [ lc i; lc (inc (g n) site (Rng.int rng ~bound:2)) ] else [ lc i ])
            (Array.to_list order)
        in
        let commits =
          if Rng.bool rng ~p:0.3 then
            let l = Txn.local ~site ~n:(s + 1) in
            let k = Rng.int rng ~bound:(List.length commits + 1) in
            List.filteri (fun j _ -> j < k) commits @ (lc (inc l site 0) :: List.filteri (fun j _ -> j >= k) commits)
          else commits
        in
        ref commits)
      sites
  in
  let rec interleave acc =
    match List.filter (fun q -> !q <> []) (Array.to_list queues) with
    | [] -> List.rev acc
    | live ->
        let q = List.nth live (Rng.int rng ~bound:(List.length live)) in
        let op = List.hd !q in
        q := List.tl !q;
        let noise =
          match Rng.int rng ~bound:8 with
          | 0 -> [ p (g (1 + Rng.int rng ~bound:n_txns)) (Rng.choice rng sites) ]
          | 1 -> [ gc (g (1 + Rng.int rng ~bound:n_txns)) ]
          | 2 -> [ Op.Global_abort (g (1 + Rng.int rng ~bound:n_txns)) ]
          | _ -> []
        in
        interleave (noise @ (op :: acc))
  in
  History.of_ops (interleave [])

let cg_matches_list_reference h =
  let module R = Deciders_reference.Commit_order_graph in
  Commit_order_graph.find_cycle h = R.find_cycle h
  && Commit_order_graph.serialization_order h = R.serialization_order h

let prop_cg_matches_list_reference =
  QCheck.Test.make ~name:"dense CG = list-based CG: same cycle, same order" ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      cg_matches_list_reference (random_commit_order_history rng)
      && cg_matches_list_reference (Committed.extended (random_resubmission_history rng))
      && cg_matches_list_reference (Committed.extended (with_global_commits rng (random_ltm_history rng ~n_sites:3))))

(* The generated commit orders reach what the property must see: cyclic
   and acyclic CGs on more than 16 sites, and on a few. *)
let test_commit_order_generator_covers () =
  let shapes =
    List.map
      (fun seed ->
        let h = random_commit_order_history (Rng.create ~seed) in
        let sites =
          List.sort_uniq Site.compare
            (List.filter_map (function Op.Local_commit i -> Some i.Txn.Incarnation.site | _ -> None) (History.ops h))
        in
        (List.length sites > 16, Deciders_reference.Commit_order_graph.find_cycle h <> None))
      (List.init 300 Fun.id)
  in
  List.iter
    (fun ((wide, cyclic) as shape) ->
      Alcotest.(check bool)
        (Fmt.str "%s CG on %s sites" (if cyclic then "a cyclic" else "an acyclic") (if wide then "more than 16" else "a few"))
        true (List.mem shape shapes))
    [ (true, true); (true, false); (false, true); (false, false) ]

(* SG(H) as first written: an edge for every pair of same-item
   operations, in history order, that [Op.conflicts]. *)
let sg_reference h =
  let by_item = Hashtbl.create 16 in
  History.iteri
    (fun _ op ->
      match Op.item op with
      | Some item -> Hashtbl.replace by_item item (op :: Option.value ~default:[] (Hashtbl.find_opt by_item item))
      | None -> ())
    h;
  let edges = ref [] in
  Hashtbl.iter
    (fun _ l ->
      let ops = Array.of_list (List.rev l) in
      let n = Array.length ops in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Op.conflicts ops.(i) ops.(j) then edges := (Op.txn ops.(i), Op.txn ops.(j)) :: !edges
        done
      done)
    by_item;
  Serialization_graph.G.of_edges ~vertices:(History.txns h) !edges

let sg_matches_reference h =
  let module G = Serialization_graph.G in
  let g = Serialization_graph.build h and r = sg_reference h in
  G.vertices g = G.vertices r
  && G.edges g = G.edges r
  && Serialization_graph.find_cycle h = G.find_cycle r
  && G.sccs g = G.sccs r
  && Quasi.check h = Quasi.of_graph r

let prop_sg_matches_pairwise_resubmission =
  QCheck.Test.make ~name:"resubmission histories: SG = pairwise SG" ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let h = random_resubmission_history (Rng.create ~seed) in
      sg_matches_reference h && sg_matches_reference (Committed.extended h))

let prop_sg_matches_pairwise_multi_site =
  QCheck.Test.make ~name:"multi-site histories: SG = pairwise SG" ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let h = random_ltm_history (Rng.create ~seed) ~n_sites:3 in
      sg_matches_reference h && sg_matches_reference (Committed.extended h))

(* The SG properties see cycles and entangled components of three or
   more, not only acyclic graphs. *)
let test_sg_generators_entangle () =
  let sccs gen =
    List.concat_map
      (fun seed -> Serialization_graph.G.sccs (sg_reference (gen (Rng.create ~seed))))
      (List.init 300 Fun.id)
  in
  List.iter
    (fun (name, gen) ->
      let sizes = List.map List.length (sccs gen) in
      Alcotest.(check bool) (name ^ ": an SCC of two") true (List.mem 2 sizes);
      Alcotest.(check bool) (name ^ ": an SCC of three or more") true (List.exists (fun k -> k >= 3) sizes))
    [
      ("resubmission", random_resubmission_history);
      ("multi-site", fun rng -> random_ltm_history rng ~n_sites:3);
    ]

(* Hot-item histories, for rows and buckets of some size: one to three
   sites with one to three items each (item 0 of a site the hottest),
   10-40 incarnations of local and of global transactions (a global's
   spread over the sites, some resubmitted), and 50-300 operations. An
   incarnation often accesses one item twice running (read then write,
   write then read, or two writes); incarnations commit, abort, keep
   operating after their termination and prepare, and most globals
   commit at the end. In about four histories in ten the last item of
   site a, when there are two or more, is only ever read. *)
let random_hot_history rng =
  let n_sites = 1 + Rng.int rng ~bound:3 in
  let items =
    Array.init n_sites (fun s ->
        Array.init (1 + Rng.int rng ~bound:3) (fun key -> Item.make ~site:(Site.of_int s) ~table:"H" ~key))
  in
  let read_only = Rng.bool rng ~p:0.4 in
  let n_incs = 10 + Rng.int rng ~bound:31 in
  let incs =
    Array.init n_incs (fun k ->
        let site = Site.of_int (Rng.int rng ~bound:n_sites) in
        if Rng.bool rng ~p:0.3 then inc (Txn.local ~site ~n:(k + 1)) site 0
        else
          inc (g (1 + Rng.int rng ~bound:(1 + (n_incs / 2)))) site
            (if Rng.bool rng ~p:0.3 then 1 + Rng.int rng ~bound:2 else 0))
  in
  let item (i : Txn.Incarnation.t) ~write =
    let at = items.(Site.to_int i.site) in
    let n = Array.length at in
    let k = if Rng.bool rng ~p:0.6 then 0 else Rng.int rng ~bound:n in
    if write && read_only && Site.to_int i.site = 0 && n > 1 && k = n - 1 then at.(0) else at.(k)
  in
  let n_ops = 50 + Rng.int rng ~bound:251 in
  let ops = ref [] and len = ref 0 in
  let emit op =
    ops := op :: !ops;
    incr len
  in
  while !len < n_ops do
    let i = incs.(Rng.int rng ~bound:n_incs) in
    match Rng.int rng ~bound:20 with
    | 0 | 1 -> emit (lc i)
    | 2 -> emit (la i)
    | 3 -> emit (p i.Txn.Incarnation.txn i.Txn.Incarnation.site)
    | k when k < 8 ->
        let first_write = Rng.bool rng ~p:0.5 in
        let second_write = (not first_write) || Rng.bool rng ~p:0.5 in
        let it = item i ~write:true in
        emit ((if first_write then w else r) i it);
        emit ((if second_write then w else r) i it)
    | k when k < 14 -> emit (r i (item i ~write:false))
    | _ -> emit (w i (item i ~write:true))
  done;
  with_global_commits rng (History.of_ops (List.rev !ops))

let prop_sg_matches_pairwise_hot =
  QCheck.Test.make ~name:"hot-item histories: SG = pairwise SG" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let h = random_hot_history (Rng.create ~seed) in
      sg_matches_reference h && sg_matches_reference (Committed.extended h))

let prop_rigorous_hot =
  QCheck.Test.make ~name:"hot-item histories: rigorousness sweep = pairwise rule" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let h = random_hot_history (Rng.create ~seed) in
      Rigorous.violations h = rigorous_reference h
      && Rigorous.check_all_sites h = rigorous_all_sites_reference h)

(* The hot-item generator makes rows and buckets of twenty and more, and
   items only ever read, whose accesses add no edge. *)
let test_hot_generator_covers () =
  let hs = List.map (fun seed -> random_hot_history (Rng.create ~seed)) (List.init 300 Fun.id) in
  let module G = Serialization_graph.G in
  let degrees h =
    let g = sg_reference h in
    let vs = G.vertices g in
    let out = List.map (fun v -> List.length (G.successors g v)) vs in
    let into = List.map (fun v -> List.length (List.filter (fun u -> G.mem_edge g u v) vs)) vs in
    (out, into)
  in
  let some name f = Alcotest.(check bool) name true (List.exists f hs) in
  some "a row of at least 20 destinations" (fun h -> List.exists (fun k -> k >= 20) (fst (degrees h)));
  some "a destination with at least 20 sources" (fun h -> List.exists (fun k -> k >= 20) (snd (degrees h)));
  some "an item touched only by reads" (fun h ->
      let items = List.sort_uniq Item.compare (List.filter_map Op.item (History.ops h)) in
      List.exists
        (fun it ->
          not (History.exists (fun op -> Op.is_write op && Option.equal Item.equal (Op.item op) (Some it)) h))
        items)

(* Report.analyze builds SG(C(H)) once for both uses; the cycle and the
   QSR verdict must be those the standalone checkers compute. *)
let test_report_shares_sg () =
  let lost_update =
    History.of_ops [ r i10a xa; r i20a xa; w i10a xa; w i20a xa; lc i10a; lc i20a; gc t1; gc t2 ]
  in
  List.iter
    (fun (name, h) ->
      let rep = Report.analyze h and c = Committed.extended h in
      Alcotest.(check (option (list string))) (name ^ " sg_cycle")
        (Option.map (List.map Txn.show) (Serialization_graph.find_cycle c))
        (Option.map (List.map Txn.show) rep.Report.sg_cycle);
      Alcotest.(check string) (name ^ " quasi")
        (Fmt.str "%a" Quasi.pp_verdict (Quasi.check c))
        (Fmt.str "%a" Quasi.pp_verdict rep.Report.quasi))
    [ ("H1", h1); ("H2", h2); ("H3", h3); ("lost update", lost_update) ];
  Alcotest.(check bool) "lost update SG is cyclic" true
    ((Report.analyze lost_update).Report.sg_cycle <> None)

(* ------------------------------------------------------------------ *)
(* Golden report digests                                               *)
(* ------------------------------------------------------------------ *)

(* Mid-size fault runs: unilateral aborts of prepared subtransactions with
   resubmission, 1% message drops and a rotating crash schedule that takes
   coordinators down. The [Report.pp] text of each is pinned by digest, so
   any change to a checker that alters a verdict, a violation list or the
   order anything is printed in shows up here. The naive certifier lets
   resubmissions diverge, so its report lists global view distortions. *)
let fault_setup ?(seed = 11) ~certifier () =
  let module Driver = Hermes_workload.Driver in
  let module Spec = Hermes_workload.Spec in
  let module Network = Hermes_net.Network in
  let n_global = 300 in
  {
    Driver.default_setup with
    Driver.seed;
    spec =
      Spec.make ~n_sites:4 ~n_global
        ~arrival:(Spec.Closed { mpl = 8; think_time_mean = 2_000 })
        ~key_dist:(Spec.Zipf { theta = 0.6 })
        ~mix:{ Spec.sites_per_txn = 2; ops_per_site = 2; write_ratio = 0.5 }
        ~local_txn_cap:(n_global / 2) ~max_retries:100 ();
    protocol = Driver.Two_pca { certifier with Hermes_core.Config.decision_inquiry_interval = 10_000 };
    failure = Hermes_ltm.Failure.prepared_rate 0.3;
    net = { Network.default_config with Network.faults = { Network.no_faults with Network.drop = 0.01 } };
    crash_coordinators = true;
    reboot_delay = 20_000;
    crash_schedule = List.init 4 (fun k -> ((k + 1) * 200_000, k));
  }

let fault_report setup = Report.analyze (Hermes_workload.Driver.run setup).Hermes_workload.Driver.history
let report_digest rep = Digest.to_hex (Digest.string (Fmt.str "%a" Report.pp rep))

let test_golden_report_full () =
  Alcotest.(check string) "Report.pp digest" "11926215a8f58f3d83d9c1be3a4791f2"
    (report_digest (fault_report (fault_setup ~certifier:Hermes_core.Config.full ())))

let test_golden_report_naive () =
  Alcotest.(check string) "Report.pp digest" "12715281982bb62a48b0407474963a70"
    (report_digest (fault_report (fault_setup ~certifier:Hermes_core.Config.naive ())))

(* Seed 8 entangles three transactions in one SCC of SG(C(H)), so the
   report prints Tarjan's member order inside a component larger than a
   2-cycle. *)
let test_golden_report_naive_scc3 () =
  let rep = fault_report (fault_setup ~seed:8 ~certifier:Hermes_core.Config.naive ()) in
  (match rep.Report.quasi with
  | Quasi.Not_quasi_serializable scc ->
      Alcotest.(check (list string)) "entangled SCC" [ "T9"; "T12"; "L5c" ] (List.map Txn.show scc)
  | Quasi.Quasi_serializable _ -> Alcotest.fail "expected an entangled SCC");
  Alcotest.(check string) "Report.pp digest" "825c31bdf0e9e8ba5a653ff941ab4150" (report_digest rep)

(* ------------------------------------------------------------------ *)
(* The run verdict                                                     *)
(* ------------------------------------------------------------------ *)

(* Which of the verdict's five components fired, in the order
   distortions, CG cycle, rigorousness, values, torn. *)
let verdict_fired (v : Correctness.t) =
  [
    v.Correctness.distortions <> [];
    v.Correctness.cg_cycle <> None;
    List.exists (fun (_, vs) -> vs <> []) v.Correctness.rigorous_violations;
    v.Correctness.value_mismatches <> [];
    v.Correctness.torn <> [];
  ]

let check_fired name expected h =
  let v = Correctness.check h in
  Alcotest.(check (list bool)) (name ^ ": distortions, cycle, rigorousness, values, torn") expected (verdict_fired v);
  Alcotest.(check bool) (name ^ ": ok") (not (List.mem true expected)) (Correctness.ok v)

let test_verdict_full_run_ok () =
  check_fired "full 2CM fault run" [ false; false; false; false; false ]
    (Hermes_workload.Driver.run (fault_setup ~certifier:Hermes_core.Config.full ())).Hermes_workload.Driver.history

(* The naive certifier under 30% unilateral aborts of prepared
   subtransactions: resubmissions read from other transactions, and local
   commits land in opposite orders. *)
let test_verdict_naive_run () =
  let v =
    Correctness.check
      (Hermes_workload.Driver.run (fault_setup ~certifier:Hermes_core.Config.naive ())).Hermes_workload.Driver.history
  in
  Alcotest.(check bool) "distortions" true (v.Correctness.distortions <> []);
  Alcotest.(check bool) "CG cycle" true (v.Correctness.cg_cycle <> None);
  Alcotest.(check bool) "not ok" false (Correctness.ok v)

(* E19's undefended lying row: site 1 votes READY without preparing and
   drops its local commit, so commits are torn — and, leaving C(H), show
   no distortion. *)
let test_verdict_lying_site_torn () =
  let module Config = Hermes_core.Config in
  let module Spec = Hermes_workload.Spec in
  let module Driver = Hermes_workload.Driver in
  let lying = { Config.full with Config.adversary = { Config.no_adversary with Config.lying_sites = [ 1 ] } } in
  let r =
    Driver.run
      {
        Driver.default_setup with
        Driver.protocol = Driver.Two_pca lying;
        spec = Spec.make ~n_global:90 ~arrival:(Spec.Closed { mpl = 4; think_time_mean = Spec.think_time Spec.default }) ();
      }
  in
  let v = Correctness.check r.Driver.history in
  Alcotest.(check bool) "torn" true (v.Correctness.torn <> []);
  Alcotest.(check int) "no distortion" 0 (List.length v.Correctness.distortions);
  Alcotest.(check bool) "not ok" false (Correctness.ok v)

let test_verdict_hand_built () =
  (* H2: local commits in opposite orders at a and b. *)
  check_fired "H2" [ false; true; false; false; false ] h2;
  (* T1's resubmission reads X^a from another transaction than its first
     incarnation did; C(H) keeps both. *)
  check_fired "resubmission" [ true; false; false; false; false ]
    (History.of_ops [ r i10a xa; la i10a; w i20a xa; lc i20a; gc t2; r i11a xa; lc i11a; gc t1 ]);
  (* T2 reads X^a that T1 wrote before T1 terminated. *)
  check_fired "dirty read" [ false; false; true; false; false ]
    (History.of_ops [ w i10a xa; r i20a xa; lc i10a; lc i20a; gc t1; gc t2 ]);
  (* T2's read names T1's write but a value T1 never wrote. *)
  check_fired "wrong value" [ false; false; false; true; false ]
    (History.of_ops
       [
         Op.write ~value:5 ~inc:i10a ~item:xa ();
         lc i10a;
         gc t1;
         Op.read ~value:99 ~inc:i20a ~item:xa ~from:(Some i10a) ();
         lc i20a;
         gc t2;
       ]);
  (* T1 commits globally but never locally at b. *)
  let torn = History.of_ops [ w i10a xa; w i10b zb; p t1 a; p t1 b; gc t1; lc i10a ] in
  check_fired "torn" [ false; false; false; false; true ] torn;
  Alcotest.(check (list string)) "torn transaction" [ "T1" ]
    (List.map Txn.show (Correctness.check torn).Correctness.torn)

let resubmission_input seed =
  let rng = Rng.create ~seed in
  with_values rng (random_resubmission_history rng)

let multi_site_input seed =
  let rng = Rng.create ~seed in
  with_values rng (with_global_commits rng (random_ltm_history rng ~n_sites:3))

(* The verdict's torn globals come from the keep pass: committed and not
   kept. They must be the globals that are globally committed and not
   complete, the definition the verdict read before. *)
let torn_by_definition h =
  List.filter (fun t -> History.is_globally_committed h t && not (History.is_complete h t)) (History.global_txns h)

let prop_torn_from_keep_pass =
  QCheck.Test.make ~name:"torn globals from the keep pass = committed, not complete" ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      List.for_all
        (fun h -> (Correctness.check h).Correctness.torn = torn_by_definition h)
        [ resubmission_input seed; multi_site_input seed ])

(* The torn property's inputs make every other component fire
   somewhere, so the verdict is exercised beyond empty lists. *)
let test_verdict_generators_cover () =
  let fired =
    List.map verdict_fired
      (List.concat_map (fun seed -> [ Correctness.check (resubmission_input seed); Correctness.check (multi_site_input seed) ])
         (List.init 300 Fun.id))
  in
  List.iteri
    (fun k name -> Alcotest.(check bool) name true (List.exists (fun f -> List.nth f k) fired))
    [ "distortions"; "CG cycle"; "rigorousness violations"; "value mismatches" ]

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "history"
    [
      ( "H1-global-view-distortion",
        [
          Alcotest.test_case "committed projection" `Quick test_h1_committed_projection;
          Alcotest.test_case "completeness" `Quick test_h1_complete;
          Alcotest.test_case "locally rigorous" `Quick test_h1_locally_rigorous;
          Alcotest.test_case "distortion detected" `Quick test_h1_global_view_distortion;
          Alcotest.test_case "not view serializable" `Quick test_h1_not_view_serializable;
          Alcotest.test_case "classical projection hides it" `Quick test_h1_classical_is_serializable;
          Alcotest.test_case "SG cyclic" `Quick test_h1_sg_cyclic;
        ] );
      ( "H2-local-view-distortion",
        [
          Alcotest.test_case "CG cyclic" `Quick test_h2_cg_cyclic;
          Alcotest.test_case "not view serializable" `Quick test_h2_not_view_serializable;
          Alcotest.test_case "no global distortion" `Quick test_h2_no_global_distortion;
          Alcotest.test_case "L4's views match the paper" `Quick test_h2_l4_views;
          Alcotest.test_case "rigorous" `Quick test_h2_rigorous;
        ] );
      ( "H3-indirect-distortion",
        [
          Alcotest.test_case "T5, T6 have no direct conflict" `Quick test_h3_no_direct_conflict;
          Alcotest.test_case "CG cyclic" `Quick test_h3_cg_cyclic;
          Alcotest.test_case "not view serializable" `Quick test_h3_not_view_serializable;
          Alcotest.test_case "rigorous" `Quick test_h3_rigorous;
          Alcotest.test_case "no global distortion" `Quick test_h3_no_global_distortion;
        ] );
      ( "Hx-overtaking",
        [ Alcotest.test_case "CG cyclic" `Quick test_hx_cg_cyclic ] );
      ( "history",
        [
          Alcotest.test_case "txn listing" `Quick test_txn_listing;
          Alcotest.test_case "sites of txn" `Quick test_sites_of_txn;
          Alcotest.test_case "incomplete dropped" `Quick test_incomplete_txn;
          Alcotest.test_case "uncommitted dropped" `Quick test_uncommitted_dropped;
          Alcotest.test_case "of_events sorts" `Quick test_of_events_sorts;
          Alcotest.test_case "of_events seq tie-break" `Quick test_of_events_seq_tie_break;
          Alcotest.test_case "projections" `Quick test_projection_site;
        ] );
      ( "replay",
        [
          Alcotest.test_case "read own write" `Quick test_replay_read_own_write;
          Alcotest.test_case "abort restores" `Quick test_replay_abort_restores;
          Alcotest.test_case "occurrences" `Quick test_replay_occurrences;
          Alcotest.test_case "uncommitted tracked" `Quick test_replay_uncommitted;
        ] );
      ( "view",
        [
          Alcotest.test_case "simple serializable" `Quick test_view_serializable_simple;
          Alcotest.test_case "lost update" `Quick test_view_lost_update;
          Alcotest.test_case "too large" `Quick test_view_too_large;
          Alcotest.test_case "equivalence" `Quick test_view_equivalent_reflexive;
          q prop_serial_is_view_serializable;
          q prop_swap_nonconflicting_preserves_view;
          q prop_pruned_vsr_agrees_with_naive;
        ] );
      ( "rigorous",
        [
          Alcotest.test_case "dirty read" `Quick test_rigorous_dirty_read;
          Alcotest.test_case "read-then-write" `Quick test_rigorous_read_then_write;
          Alcotest.test_case "abort terminates" `Quick test_rigorous_abort_counts;
          Alcotest.test_case "R-R ok" `Quick test_rigorous_reads_dont_conflict;
          Alcotest.test_case "indices are projection-relative" `Quick test_rigorous_projection_indices;
          q prop_serial_is_rigorous;
          q prop_rigorous_sweep_matches_pairwise;
          q prop_rigorous_all_sites_matches_projections;
          Alcotest.test_case "cross-site item" `Quick test_rigorous_cross_site_item;
          Alcotest.test_case "generator covers" `Quick test_rigorous_generator_covers;
          q prop_rigorous_hot;
        ] );
      ( "distortions",
        [
          Alcotest.test_case "generator exercises both reasons" `Quick test_resubmission_generator_distorts;
          q prop_distortions_match_reference;
        ] );
      ( "index-reference",
        [
          Alcotest.test_case "edge cases" `Quick test_index_edge_cases;
          Alcotest.test_case "generators cover" `Quick test_index_generators_cover;
          q prop_index_matches_hashed;
          q prop_index_matches_reference_resubmission;
          q prop_index_matches_reference_multi_site;
          Alcotest.test_case "commit-order generator covers" `Quick test_commit_order_generator_covers;
          q prop_cg_matches_list_reference;
        ] );
      ( "sg-reference",
        [
          Alcotest.test_case "generators entangle" `Quick test_sg_generators_entangle;
          q prop_sg_matches_pairwise_resubmission;
          q prop_sg_matches_pairwise_multi_site;
          Alcotest.test_case "hot-item generator covers" `Quick test_hot_generator_covers;
          q prop_sg_matches_pairwise_hot;
        ] );
      ( "graphs",
        [
          Alcotest.test_case "SG edges" `Quick test_sg_edges;
          Alcotest.test_case "incarnations don't conflict" `Quick test_sg_same_txn_no_conflict;
          Alcotest.test_case "CG order" `Quick test_cg_acyclic_order;
          q prop_cg_greedy_matches_reference;
          q prop_cg_order_is_topological;
          q prop_cg_cycle_is_real;
        ] );
      ( "projections-properties",
        [
          q prop_csr_implies_vsr;
          q prop_extended_contains_classical;
          q prop_committed_idempotent;
        ] );
      ( "values",
        [
          Alcotest.test_case "consistent annotated trace" `Quick (fun () ->
              let h =
                History.of_ops
                  [
                    Op.read ~value:0 ~inc:i10a ~item:xa ~from:None ();
                    Op.write ~value:5 ~inc:i10a ~item:xa ();
                    lc i10a;
                    Op.read ~value:5 ~inc:i20a ~item:xa ~from:(Some i10a) ();
                    lc i20a;
                  ]
              in
              Alcotest.(check (list string)) "no mismatches" []
                (List.map (Fmt.str "%a" Values.pp_mismatch) (Values.check h)));
          Alcotest.test_case "wrong observed value detected" `Quick (fun () ->
              let h =
                History.of_ops
                  [
                    Op.write ~value:5 ~inc:i10a ~item:xa ();
                    lc i10a;
                    Op.read ~value:99 ~inc:i20a ~item:xa ~from:(Some i10a) ();
                  ]
              in
              Alcotest.(check int) "one mismatch" 1 (List.length (Values.check h)));
          Alcotest.test_case "wrong reads-from detected" `Quick (fun () ->
              let h =
                History.of_ops
                  [
                    Op.write ~value:5 ~inc:i10a ~item:xa ();
                    lc i10a;
                    Op.read ~value:5 ~inc:i20a ~item:xa ~from:(Some i20b) ();
                  ]
              in
              Alcotest.(check int) "one mismatch" 1 (List.length (Values.check h)));
          Alcotest.test_case "abort restores values" `Quick (fun () ->
              let h =
                History.of_ops
                  [
                    Op.write ~value:5 ~inc:i10a ~item:xa ();
                    lc i10a;
                    Op.write ~value:7 ~inc:i20a ~item:xa ();
                    la i20a;
                    Op.read ~value:5 ~inc:i30a ~item:xa ~from:(Some i10a) ();
                  ]
              in
              Alcotest.(check bool) "consistent" true (Values.consistent h));
          Alcotest.test_case "unannotated ops never violate" `Quick (fun () ->
              Alcotest.(check bool) "h1" true (Values.consistent h1);
              Alcotest.(check bool) "h2" true (Values.consistent h2);
              Alcotest.(check bool) "h3" true (Values.consistent h3));
          Alcotest.test_case "final values" `Quick (fun () ->
              let h =
                History.of_ops
                  [
                    Op.write ~value:5 ~inc:i10a ~item:xa ();
                    Op.write ~value:9 ~inc:i10a ~item:ya ();
                    lc i10a;
                    Op.write ~value:7 ~inc:i20a ~item:xa ();
                    la i20a;
                  ]
              in
              Alcotest.(check (list (pair string int))) "finals"
                [ ("Xa", 5); ("Ya", 9) ]
                (List.map (fun (i, v) -> (Item.show i, v)) (Values.final_values h)));
        ] );
      ( "serial-format",
        [
          Alcotest.test_case "round trip H1" `Quick (fun () ->
              let s = Serial_format.to_string h1 in
              Alcotest.(check (list string)) "ops preserved"
                (List.map Op.show (History.ops h1))
                (List.map Op.show (History.ops (Serial_format.of_string s)));
              (* reads-from annotations survive too *)
              Alcotest.(check bool) "structural equality" true
                (History.ops (Serial_format.of_string s) = History.ops h1));
          Alcotest.test_case "round trip H2/H3/Hx" `Quick (fun () ->
              List.iter
                (fun h ->
                  let h' = Serial_format.of_string (Serial_format.to_string h) in
                  Alcotest.(check bool) "identical" true (History.ops h' = History.ops h))
                [ h2; h3; hx ]);
          Alcotest.test_case "comments and blanks ignored" `Quick (fun () ->
              let h = Serial_format.of_string "# hello\n\nGC G1\n  \nLC G1 0 0\n" in
              Alcotest.(check int) "two ops" 2 (History.length h));
          Alcotest.test_case "parse errors carry line numbers" `Quick (fun () ->
              match Serial_format.of_string "GC G1\nBOGUS x\n" with
              | exception Serial_format.Parse_error (2, _) -> ()
              | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
              | _ -> Alcotest.fail "expected parse error");
          Alcotest.test_case "analysis of a reparsed history agrees" `Quick (fun () ->
              let h' = Serial_format.of_string (Serial_format.to_string h2) in
              let v = (Report.analyze h2).Report.verdict and v' = (Report.analyze h').Report.verdict in
              Alcotest.(check bool) "same verdict" true (v.Correctness.view = v'.Correctness.view);
              Alcotest.(check bool) "same cg" true
                ((v.Correctness.cg_cycle = None) = (v'.Correctness.cg_cycle = None)));
        ] );
      ( "quasi-serializability",
        [
          Alcotest.test_case "H1/H2/H3 refute QSR" `Quick test_qsr_h1_h2_h3;
          Alcotest.test_case "witness order" `Quick test_qsr_witness_order;
          Alcotest.test_case "blind-write gap vs VSR" `Quick test_qsr_blind_writes_gap;
          Alcotest.test_case "global-local entanglement" `Quick test_qsr_local_entanglement;
        ] );
      ( "report",
        [
          Alcotest.test_case "H1 report" `Quick test_report_h1;
          Alcotest.test_case "clean report" `Quick test_report_clean;
          Alcotest.test_case "one SG for cycle and QSR" `Quick test_report_shares_sg;
        ] );
      ( "verdict",
        [
          Alcotest.test_case "full 2CM run is ok" `Quick test_verdict_full_run_ok;
          Alcotest.test_case "naive run distorts and cycles" `Quick test_verdict_naive_run;
          Alcotest.test_case "lying site tears commits" `Quick test_verdict_lying_site_torn;
          Alcotest.test_case "each component fires alone" `Quick test_verdict_hand_built;
          Alcotest.test_case "generators cover" `Quick test_verdict_generators_cover;
          q prop_torn_from_keep_pass;
        ] );
      ( "golden",
        [
          Alcotest.test_case "fault run report digest (full 2CM)" `Quick test_golden_report_full;
          Alcotest.test_case "fault run report digest (naive)" `Quick test_golden_report_naive;
          Alcotest.test_case "naive run with a 3-member SCC: report digest" `Quick test_golden_report_naive_scc3;
        ] );
    ]
