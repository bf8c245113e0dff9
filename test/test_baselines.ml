(* Tests for hermes.baselines: the CGM commit graph and the CGM DTM
   end-to-end. *)

open Hermes_kernel
module Engine = Hermes_sim.Engine
module Failure = Hermes_ltm.Failure
module Program = Hermes_core.Program
module Coordinator = Hermes_core.Coordinator
module Dtm = Hermes_core.Dtm
module Commit_graph = Hermes_baselines.Commit_graph
module Cgm = Hermes_baselines.Cgm
module Report = Hermes_history.Report
module Correctness = Hermes_history.Correctness

let a = Site.of_int 0
let b = Site.of_int 1
let c = Site.of_int 2

(* ------------------------------------------------------------------ *)
(* Commit graph                                                        *)
(* ------------------------------------------------------------------ *)

let test_cg_no_loop_single () =
  let g = Commit_graph.create () in
  Alcotest.(check bool) "first txn" false (Commit_graph.would_loop g ~gid:1 ~sites:[ a; b ]);
  Commit_graph.enter g ~gid:1 ~sites:[ a; b ];
  (* A second transaction sharing ONE site attaches without a loop. *)
  Alcotest.(check bool) "shares one site" false (Commit_graph.would_loop g ~gid:2 ~sites:[ a; c ])

let test_cg_loop_two_sites () =
  let g = Commit_graph.create () in
  Commit_graph.enter g ~gid:1 ~sites:[ a; b ];
  (* Sharing TWO sites closes a loop T1-a-T2-b-T1. *)
  Alcotest.(check bool) "shares two sites" true (Commit_graph.would_loop g ~gid:2 ~sites:[ a; b ])

let test_cg_leave_clears () =
  let g = Commit_graph.create () in
  Commit_graph.enter g ~gid:1 ~sites:[ a; b ];
  Commit_graph.leave g ~gid:1;
  Alcotest.(check bool) "free again" false (Commit_graph.would_loop g ~gid:2 ~sites:[ a; b ])

let test_cg_indirect_loop () =
  let g = Commit_graph.create () in
  Commit_graph.enter g ~gid:1 ~sites:[ a; b ];
  Commit_graph.enter g ~gid:2 ~sites:[ b; c ];
  (* T3 over {a, c} closes the loop a-T1-b-T2-c-T3-a. *)
  Alcotest.(check bool) "three-party loop" true (Commit_graph.would_loop g ~gid:3 ~sites:[ a; c ])

(* ------------------------------------------------------------------ *)
(* CGM end-to-end                                                      *)
(* ------------------------------------------------------------------ *)

type world = { engine : Engine.t; cgm : Cgm.t }

let make_world ?(granularity = Cgm.Site_level) ?(failure = Failure.disabled) ?(seed = 3) () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed in
  let cgm =
    Cgm.create ~engine ~rng ~net_config:Hermes_net.Network.default_config ~granularity
      ~site_specs:(Array.make 2 { Dtm.default_site_spec with Dtm.failure }) ()
  in
  List.iter
    (fun site ->
      List.iter (fun k -> Dtm.load (Cgm.dtm cgm) site ~table:"X" ~key:k ~value:100) (List.init 10 Fun.id))
    (Dtm.site_ids (Cgm.dtm cgm));
  { engine; cgm }

let update site key delta = (site, Command.Update { table = "X"; key; delta })

let test_cgm_commits () =
  let w = make_world () in
  let committed = ref 0 in
  for i = 0 to 4 do
    Cgm.submit w.cgm
      (Program.make [ update a i 1; update b i 1 ])
      ~on_done:(fun o -> if o = Coordinator.Committed then incr committed)
  done;
  Engine.run w.engine;
  Alcotest.(check int) "all five" 5 !committed;
  Alcotest.(check bool) "clean history" true (Report.ok (Report.analyze (Dtm.history (Cgm.dtm w.cgm))))

let test_cgm_gate_delays () =
  (* Concurrent two-site transactions share both sites: the commit graph
     must delay some commits, but all eventually pass. *)
  let w = make_world () in
  let committed = ref 0 in
  for i = 0 to 5 do
    Cgm.submit w.cgm
      (Program.make [ update a i 1; update b i 1 ])
      ~on_done:(fun o -> if o = Coordinator.Committed then incr committed)
  done;
  Engine.run w.engine;
  Alcotest.(check int) "all committed" 6 !committed;
  (* With site-level X locks they serialize at acquisition, so delays may
     be zero; with shared (read-only) global locks they overlap. Verify at
     least that the counter is consistent. *)
  Alcotest.(check bool) "stats consistent" true ((Cgm.stats w.cgm).Cgm.gate_delays >= 0)

let test_cgm_readonly_overlap_delays () =
  (* Read-only transactions hold shared global locks, reach the gate
     concurrently, and loop in the commit graph: the gate must
     hold some back and release them on completion. *)
  let w = make_world () in
  let committed = ref 0 in
  let sel site keys = (site, Command.Select { table = "X"; keys }) in
  for i = 0 to 3 do
    Cgm.submit w.cgm
      (Program.make [ sel a [ i ]; sel b [ i ] ])
      ~on_done:(fun o -> if o = Coordinator.Committed then incr committed)
  done;
  Engine.run w.engine;
  Alcotest.(check int) "all committed" 4 !committed;
  Alcotest.(check bool) "delays happened" true ((Cgm.stats w.cgm).Cgm.gate_delays > 0)

let test_cgm_under_failures () =
  (* Resubmission without certification, protected by global locks and the
     commit graph: the history must still verify (the paper's claim that
     CGM achieves the same goals, more restrictively). Global-only
     workload; locals restricted by the partition are exercised in the
     driver tests. *)
  let w = make_world ~failure:(Failure.prepared_rate 0.4) ~seed:11 () in
  let finished = ref 0 in
  let rec submit n =
    if n > 0 then
      Cgm.submit w.cgm
        (Program.make [ update a (n mod 5) 1; update b (n mod 5) (-1) ])
        ~on_done:(fun _ ->
          incr finished;
          submit (n - 1))
  in
  submit 12;
  Engine.run w.engine;
  Alcotest.(check int) "all finished" 12 !finished;
  let rep = Report.analyze (Dtm.history (Cgm.dtm w.cgm)) in
  Alcotest.(check bool) "no distortions" true (rep.Report.verdict.Correctness.distortions = []);
  Alcotest.(check bool) "CG acyclic" true (rep.Report.verdict.Correctness.cg_cycle = None)

let test_cgm_table_granularity_allows_disjoint () =
  (* At table granularity, transactions on different tables at the same
     sites proceed with no global-lock conflict. *)
  let w = make_world ~granularity:Cgm.Table_level () in
  List.iter
    (fun site ->
      List.iter (fun k -> Dtm.load (Cgm.dtm w.cgm) site ~table:"Y" ~key:k ~value:50) (List.init 10 Fun.id))
    (Dtm.site_ids (Cgm.dtm w.cgm));
  let committed = ref 0 in
  let upd table site key = (site, Command.Update { table; key; delta = 1 }) in
  Cgm.submit w.cgm
    (Program.make [ upd "X" a 0; upd "X" b 0 ])
    ~on_done:(fun o -> if o = Coordinator.Committed then incr committed);
  Cgm.submit w.cgm
    (Program.make [ upd "Y" a 0; upd "Y" b 0 ])
    ~on_done:(fun o -> if o = Coordinator.Committed then incr committed);
  Engine.run w.engine;
  Alcotest.(check int) "both committed" 2 !committed

let () =
  Alcotest.run "baselines"
    [
      ( "commit-graph",
        [
          Alcotest.test_case "single txn" `Quick test_cg_no_loop_single;
          Alcotest.test_case "two shared sites loop" `Quick test_cg_loop_two_sites;
          Alcotest.test_case "leave clears" `Quick test_cg_leave_clears;
          Alcotest.test_case "indirect loop" `Quick test_cg_indirect_loop;
        ] );
      ( "cgm",
        [
          Alcotest.test_case "commits" `Quick test_cgm_commits;
          Alcotest.test_case "gate consistency" `Quick test_cgm_gate_delays;
          Alcotest.test_case "read-only overlap delays" `Quick test_cgm_readonly_overlap_delays;
          Alcotest.test_case "under failures" `Quick test_cgm_under_failures;
          Alcotest.test_case "table granularity" `Quick test_cgm_table_granularity_allows_disjoint;
        ] );
    ]
