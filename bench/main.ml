(* The benchmark harness.

   Part 1 regenerates every table of the experiment suite
   ([Experiment.tables]) — the paper has no quantitative tables of its
   own, so these operationalize its qualitative claims; the mapping is
   documented in DESIGN.md §3 and EXPERIMENTS.md. The whole sweep runs
   with a shared metrics registry, summarized after the tables (and the
   registry totals double as a sanity check that the suite actually
   exercised the certifier paths).

   Part 2 runs Bechamel microbenchmarks (M1..M15) of the certifier's and
   substrate's hot operations: alive-interval certification (fast path
   and fold baseline), alive-table maintenance, commit certification
   (fast path and fold baseline), lock acquisition, serialization /
   commit-order graph checks, replay, the exact view-serializability
   decision — pruned DFS vs the naive permutation search on the same
   fixture, plus the DFS alone on a 10-transaction history — and the
   event-scheduler substrate itself (engine schedule/fire/cancel, and the
   engine's heap under adversarially ordered keys).

   Wall-clock throughput of whole runs is perfbench's job (perfbench/);
   E16 reports the windowed engine's wall-clock scaling here.

   Run with:  dune exec bench/main.exe -- [--quick] [--jobs N] [--domains N] [--json FILE]

   --json dumps every table cell, the suite metrics registry and the
   microbenchmark estimates as one JSON document, schema
   "hermes-bench/4". *)

open Hermes_kernel
module Experiment = Hermes_harness.Experiment
module Table_fmt = Hermes_harness.Table_fmt
module Alive_table = Hermes_protocol.Alive_table
module Lock = Hermes_ltm.Lock
module History = Hermes_history.History
module Op = Hermes_history.Op
module Serialization_graph = Hermes_history.Serialization_graph
module Commit_order_graph = Hermes_history.Commit_order_graph
module Replay = Hermes_history.Replay
module View = Hermes_history.View
module Committed = Hermes_history.Committed
module Json = Hermes_obs.Json
module Engine = Hermes_sim.Engine

(* ------------------------------------------------------------------ *)
(* Fixtures for the microbenchmarks                                    *)
(* ------------------------------------------------------------------ *)

let site n = Site.of_int n

let filled_alive_table n =
  let t = Alive_table.create () in
  for gid = 1 to n do
    Alive_table.insert t ~gid
      ~sn:(Sn.make ~ts:(Time.of_int gid) ~site:(site 0) ~seq:0)
      ~interval:(Interval.make ~lo:(Time.of_int 0) ~hi:(Time.of_int (1000 + gid)))
  done;
  t

(* A synthetic committed history: [n_txns] transactions over [n_items]
   items at two sites, round-robin interleaved, all committed. *)
let synthetic_history ~n_txns ~n_items =
  let rng = Rng.create ~seed:99 in
  let ops = ref [] in
  for g = 1 to n_txns do
    let s = site (g mod 2) in
    let inc = Txn.Incarnation.make ~txn:(Txn.global g) ~site:s ~inc:0 in
    for _ = 1 to 4 do
      let item = Item.make ~site:s ~table:"X" ~key:(Rng.int rng ~bound:n_items) in
      ops :=
        (if Rng.bool rng ~p:0.5 then Op.read ~inc ~item ~from:None () else Op.write ~inc ~item ()) :: !ops
    done;
    ops := Op.Local_commit inc :: Op.Global_commit (Txn.global g) :: !ops
  done;
  History.of_ops (List.rev !ops)

(* The paper's H1 as a literal history, for the exact
   view-serializability decision benchmarks. Its extended committed
   projection (T1 with the aborted incarnation, T2) is the global view
   distortion — NOT view serializable — so an exact decider must exhaust
   the search space to answer. *)
let h1_ops =
  let a = site 0 and b = site 1 in
  let inc txn st k = Txn.Incarnation.make ~txn ~site:st ~inc:k in
  let t1 = Txn.global 1 and t2 = Txn.global 2 in
  let i10a = inc t1 a 0 and i11a = inc t1 a 1 and i10b = inc t1 b 0 in
  let i20a = inc t2 a 0 and i20b = inc t2 b 0 in
  let item st tbl = Item.make ~site:st ~table:tbl ~key:0 in
  let xa = item a "X" and ya = item a "Y" and zb = item b "Z" in
  let r i it = Op.read ~inc:i ~item:it ~from:None () and w i it = Op.write ~inc:i ~item:it () in
  [
    r i10a xa; r i10a ya; w i10a ya; r i10b zb; w i10b zb;
    Op.Prepare { txn = t1; site = a; sn = None }; Op.Prepare { txn = t1; site = b; sn = None };
    Op.Global_commit t1; Op.Local_abort i10a; Op.Local_commit i10b;
    w i20a ya; r i20a xa; w i20a xa; r i20b zb; w i20b zb;
    Op.Prepare { txn = t2; site = a; sn = None }; Op.Prepare { txn = t2; site = b; sn = None };
    Op.Global_commit t2; Op.Local_commit i20a; Op.Local_commit i20b;
    r i11a xa; Op.Local_commit i11a;
  ]

(* H1 padded with a chain of spectator transactions s1..sn at site a:
   s1 writes P1, each s(j+1) reads Pj and writes P(j+1). The reads-from
   chain admits exactly one relative order of the spectators, and H1's
   distortion keeps the whole history non-serializable — the worst case
   for an exact decider. The pruned DFS rejects T1/T2 at every level in
   one block replay each (O(n^2) small replays overall); the naive
   search must fully replay all (n+2)! permutations. *)
let h1_chain_history n =
  let a = site 0 in
  let spectators =
    List.concat
      (List.init n (fun j ->
           let txn = Txn.global (100 + j) in
           let inc = Txn.Incarnation.make ~txn ~site:a ~inc:0 in
           let item k = Item.make ~site:a ~table:"P" ~key:k in
           let reads = if j = 0 then [] else [ Op.read ~inc ~item:(item j) ~from:None () ] in
           reads
           @ [
               Op.write ~inc ~item:(item (j + 1)) ();
               Op.Prepare { txn; site = a; sn = None };
               Op.Global_commit txn;
               Op.Local_commit inc;
             ]))
  in
  History.of_ops (h1_ops @ spectators)

(* The baselines M9, M11 and M13 time, kept with the tests' reference
   deciders. *)
open Deciders_reference

(* ------------------------------------------------------------------ *)
(* Microbenchmarks                                                     *)
(* ------------------------------------------------------------------ *)

(* Each benchmark's OLS ns/run estimate, as data: the printer and the
   JSON dump share one result list. *)
let run_microbenchmarks () =
  let table64 = filled_alive_table 64 in
  let candidate = Interval.make ~lo:(Time.of_int 500) ~hi:(Time.of_int 2000) in
  let sn33 = Sn.make ~ts:(Time.of_int 33) ~site:(site 0) ~seq:0 in
  let open Bechamel in
  let m1 =
    Test.make ~name:"M1 alive-interval certification, array scan (64 prepared)"
      (Staged.stage (fun () -> ignore (Alive_table.all_intersect table64 candidate)))
  in
  let m2 =
    let counter = ref 0 in
    Test.make ~name:"M2 alive-table insert+remove"
      (Staged.stage (fun () ->
           incr counter;
           let gid = 1_000_000 + !counter in
           Alive_table.insert table64 ~gid
             ~sn:(Sn.make ~ts:(Hermes_kernel.Time.of_int gid) ~site:(site 0) ~seq:0)
             ~interval:candidate;
           Alive_table.remove table64 ~gid))
  in
  let m3 =
    let locks = Lock.create () in
    Test.make ~name:"M3 lock acquire+release (16 keys)"
      (Staged.stage (fun () ->
           for k = 0 to 15 do
             ignore (Lock.acquire locks ("X", k) ~owner:1 ~mode:Lock.Exclusive ~on_grant:ignore)
           done;
           ignore (Lock.release_all locks ~owner:1)))
  in
  let h200 = synthetic_history ~n_txns:50 ~n_items:16 in
  let m4 =
    Test.make ~name:"M4 SG build+cycle check (50 txns, 200 ops)"
      (Staged.stage (fun () -> ignore (Serialization_graph.find_cycle h200)))
  in
  let m5 =
    Test.make ~name:"M5 CG cycle check (50 txns)"
      (Staged.stage (fun () -> ignore (Commit_order_graph.find_cycle h200)))
  in
  let m6 =
    Test.make ~name:"M6 replay semantics (200 ops)"
      (Staged.stage (fun () -> ignore (Replay.run h200)))
  in
  (* The view-serializability fixtures are projected once; deciding is
     what is measured. H1+5 spectators = 7 transactions, H1+8 = 10. *)
  let h1x = Committed.extended (h1_chain_history 5) in
  let h1xx = Committed.extended (h1_chain_history 8) in
  (* Both deciders must reach the same verdict on the shared fixture or
     the M7/M9 comparison is meaningless. *)
  assert (
    View.equal_decision
      (View.view_serializable ~limit:10 h1x)
      (view_serializable_naive ~limit:10 h1x));
  let m7 =
    Test.make ~name:"M7 exact VSR decision, pruned DFS (H1 + chain, 7 txns)"
      (Staged.stage (fun () -> ignore (View.view_serializable ~limit:10 h1x)))
  in
  let h200_text = Hermes_history.Serial_format.to_string h200 in
  let m8 =
    Test.make ~name:"M8 history dump+parse round trip (200 ops)"
      (Staged.stage (fun () -> ignore (Hermes_history.Serial_format.of_string h200_text)))
  in
  let m9 =
    Test.make ~name:"M9 exact VSR decision, naive permutations (same 7 txns)"
      (Staged.stage (fun () -> ignore (view_serializable_naive ~limit:10 h1x)))
  in
  let m10 =
    Test.make ~name:"M10 exact VSR decision, pruned DFS (H1 + chain, 10 txns)"
      (Staged.stage (fun () -> ignore (View.view_serializable ~limit:10 h1xx)))
  in
  let m11 =
    Test.make ~name:"M11 alive-interval certification, fold baseline (64 prepared)"
      (Staged.stage (fun () -> ignore (all_intersect_fold table64 candidate)))
  in
  let m12 =
    Test.make ~name:"M12 commit certification min-SN, array scan (64 prepared)"
      (Staged.stage (fun () -> ignore (Alive_table.min_sn_holds table64 ~gid:33 ~sn:sn33)))
  in
  let m13 =
    Test.make ~name:"M13 commit certification min-SN, fold baseline (64 prepared)"
      (Staged.stage (fun () -> ignore (min_sn_holds_fold table64 ~gid:33 ~sn:sn33)))
  in
  let m14 =
    Test.make ~name:"M14 engine schedule/fire/cancel (256 events, 1/4 cancelled)"
      (Staged.stage (fun () ->
           let e = Engine.create () in
           let timers = Array.init 256 (fun i -> Engine.schedule e ~delay:(i * 7 mod 64) ignore) in
           Array.iteri (fun i t -> if i land 3 = 0 then Engine.cancel t) timers;
           Engine.run e))
  in
  let m15 =
    Test.make ~name:"M15 engine heap insert+pop (256 keys, adversarial order)"
      (Staged.stage (fun () ->
           let e = Engine.create () in
           for i = 0 to 255 do
             Engine.schedule_unit e ~delay:(i * 7919 mod 1024) ignore
           done;
           Engine.run e))
  in
  let tests = [ m1; m2; m3; m4; m5; m6; m7; m8; m9; m10; m11; m12; m13; m14; m15 ] in
  let benchmark test =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
    let raw = Benchmark.all cfg [ instance ] test in
    Analyze.all ols instance raw
  in
  List.concat_map
    (fun test ->
      let results = benchmark test in
      Hashtbl.fold
        (fun name ols acc ->
          let ns =
            match Bechamel.Analyze.OLS.estimates ols with Some [ ns ] -> Some ns | _ -> None
          in
          (name, ns) :: acc)
        results [])
    tests

let print_microbenchmarks results =
  Fmt.pr "@.== Microbenchmarks (Bechamel, monotonic clock) ==@.";
  List.iter
    (fun (name, ns) ->
      match ns with
      | Some ns -> Fmt.pr "  %-62s %12.1f ns/run@." name ns
      | None -> Fmt.pr "  %-62s (no estimate)@." name)
    results

(* ------------------------------------------------------------------ *)
(* JSON dump                                                           *)
(* ------------------------------------------------------------------ *)

let table_json (name, (t : Table_fmt.t)) =
  Json.Obj
    [
      ("name", Json.String name);
      ("title", Json.String t.Table_fmt.title);
      ("headers", Json.List (List.map (fun h -> Json.String h) t.Table_fmt.headers));
      ("rows", Json.List (List.map (fun row -> Json.List (List.map (fun c -> Json.String c) row)) t.Table_fmt.rows));
      ("notes", Json.List (List.map (fun n -> Json.String n) t.Table_fmt.notes));
    ]

let dump_json (path, oc) ~quick ~jobs ~domains ~tables ~metrics ~micro =
  let micro_json =
    List.map
      (fun (name, ns) ->
        Json.Obj
          [
            ("name", Json.String name);
            ("ns_per_run", match ns with Some ns -> Json.Float ns | None -> Json.Null);
          ])
      micro
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.String "hermes-bench/4");
        ("quick", Json.Bool quick);
        ("jobs", Json.Int jobs);
        ("domains", Json.Int domains);
        ("host_cores", Json.Int (Domain.recommended_domain_count ()));
        ("tables", Json.List (List.map table_json tables));
        ("metrics", Json.of_string (Hermes_obs.Registry.to_json metrics));
        ("microbench", Json.List micro_json);
      ]
  in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "@.benchmark results written to %s@." path

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let bench quick jobs domains json =
  (* Open the dump before the suite runs: a path that cannot be written
     is a usage error, not an exception after every table. *)
  let json =
    Option.map
      (fun path ->
        match open_out path with
        | oc -> (path, oc)
        | exception Sys_error msg ->
            Fmt.epr "bench: cannot write %s@." msg;
            exit 2)
      json
  in
  let t0 = Unix.gettimeofday () in
  let metrics = Hermes_obs.Registry.create () in
  let seeds_of n = if quick then max 1 (n / 3) else n in
  let tables =
    List.map
      (fun (name, table) ->
        let t = table () in
        Table_fmt.print t;
        (name, t))
      (Experiment.tables ~seeds_of ~jobs ~domains ~metrics ())
  in
  Hermes_harness.Obs_report.print ~title:"Suite metrics (all experiments)" metrics;
  let micro = run_microbenchmarks () in
  print_microbenchmarks micro;
  Option.iter (fun out -> dump_json out ~quick ~jobs ~domains ~tables ~metrics ~micro) json;
  Fmt.pr "@.total wall time: %.1fs@." (Unix.gettimeofday () -. t0)

let () =
  let open Cmdliner in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Fewer seeds per experiment cell.") in
  let jobs =
    Arg.(
      value
      & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Fan each experiment's seed sweep out over $(docv) domains — parallelism ACROSS \
             independent seeded runs; results are byte-identical. Contrast $(b,--domains).")
  in
  let domains =
    Arg.(
      value
      & opt int (max 2 (Domain.recommended_domain_count ()))
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Within-run site parallelism for E16: the windowed engine runs on 1 and on $(docv) \
             OCaml domains (default: the host core count, at least 2). Contrast $(b,--jobs), \
             which parallelizes across independent runs.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Dump every table cell, the metrics registry and the microbenchmark estimates to \
             $(docv) (schema $(b,hermes-bench/4)).")
  in
  let term = Term.(const bench $ quick $ jobs $ domains $ json) in
  let info =
    Cmd.info "bench" ~doc:"Regenerate the experiment tables and run the microbenchmarks (M1..M15)."
  in
  exit (Cmd.eval (Cmd.v info term))
