(* The experiment suite.

   The paper (ICDE 1992) has no quantitative evaluation — its "evaluation"
   is the anomaly histories H1/H2/H3, the §5.3 message race, the Appendix
   algorithms and the qualitative §6 comparison with CGM. Each experiment
   below operationalizes one of those claims as a measured table; the
   mapping to paper anchors is in DESIGN.md §3 and the results commentary
   in EXPERIMENTS.md. *)

open Hermes_kernel
module T = Table_fmt
module Obs = Hermes_obs.Obs
module Registry = Hermes_obs.Registry
module Histogram = Hermes_obs.Histogram
module Tracer = Hermes_obs.Tracer
module Config = Hermes_core.Config
module Dtm = Hermes_core.Dtm
module Coordinator = Hermes_core.Coordinator
module Cgm = Hermes_baselines.Cgm
module Failure = Hermes_ltm.Failure
module Ltm_config = Hermes_ltm.Ltm_config
module Network = Hermes_net.Network
module Spec = Hermes_workload.Spec
module Stats = Hermes_workload.Stats
module Driver = Hermes_workload.Driver
module Report = Hermes_history.Report
module Correctness = Hermes_history.Correctness
module View = Hermes_history.View

(* Closed-loop arrival at [mpl] with the suite's standard think time —
   the builder-API spelling of the old [global_mpl] flat field. *)
let closed mpl = Spec.Closed { mpl; think_time_mean = Spec.think_time Spec.default }

let absorb metrics reg = match metrics with Some dst -> Registry.absorb dst reg | None -> ()

(* ------------------------------------------------------------------ *)
(* The seed sweep and the columns read from its runs                   *)
(* ------------------------------------------------------------------ *)

(* One seed's run: what it returned, its metrics and the verdict on the
   history it recorded. *)
type 'a run = { result : 'a; reg : Registry.t; verdict : Correctness.t }

(* Seeds 1..[seeds] fan out over [jobs] domains, each run with its own
   observability context; [f] returns its result and the verdict on the
   history it recorded, so the history is judged in the worker.
   [Pool.map] keeps seed order and the registries are absorbed into
   [metrics] here, on the calling domain, so tables and metrics dump are
   byte-identical for any [jobs]. *)
let sweep ?metrics ~jobs ~seeds f =
  let runs =
    Pool.map ~jobs
      (fun seed ->
        let obs = Obs.create () in
        let result, verdict = f ~obs seed in
        { result; reg = Obs.metrics obs; verdict })
      (List.init seeds (fun i -> i + 1))
  in
  List.iter (fun r -> absorb metrics r.reg) runs;
  runs

(* [setup] at every seed of the sweep, through [drive] (default
   {!Driver.run}). *)
let driver_runs ?metrics ~jobs ~seeds ?(drive = Driver.run) setup =
  sweep ?metrics ~jobs ~seeds (fun ~obs seed ->
      let r = drive { setup with Driver.seed; obs = Some obs } in
      (r, Correctness.check r.Driver.history))

let mean f runs = List.fold_left (fun acc r -> acc +. f r) 0.0 runs /. float_of_int (max 1 (List.length runs))
let mean_i f runs = mean (fun r -> float_of_int (f r)) runs

(* "k/n": the runs that satisfy [p], of all the runs. *)
let runs_where p runs = Fmt.str "%d/%d" (List.length (List.filter p runs)) (List.length runs)

(* A registry counter summed over sites, and a histogram percentile over
   sites, each averaged over the runs. *)
let counter name runs = mean_i (fun r -> Registry.sum_counter r.reg name) runs

let percentile name p runs =
  mean (fun r -> float_of_int (Histogram.percentile (Registry.histogram_totals r.reg name) p)) runs

let latency = "workload.commit_latency"
let distorted r = r.verdict.Correctness.distortions <> []
let cyclic r = r.verdict.Correctness.cg_cycle <> None

(* "Clean": every run finished — [stuck] of its result is 0 — and its
   history passes the verdict. *)
let clean ~stuck runs = List.for_all (fun r -> stuck r.result = 0 && Correctness.ok r.verdict) runs

(* The columns most driver tables share. *)
let stuck (r : Driver.result) = r.Driver.stuck
let stuck_runs runs = runs_where (fun r -> stuck r.result > 0) runs
let commits runs = mean_i (fun r -> Stats.committed r.result.Driver.stats) runs
let throughput runs = mean (fun r -> r.result.Driver.throughput) runs
let abort_rate runs = mean (fun r -> Stats.abort_rate r.result.Driver.stats) runs
let retries runs = mean_i (fun r -> Stats.retries r.result.Driver.stats) runs
let resubmits runs = mean_i (fun r -> r.result.Driver.totals.Dtm.resubmissions) runs

(* ------------------------------------------------------------------ *)
(* Scenario experiments                                                *)
(* ------------------------------------------------------------------ *)

(* The certifier variants the scenario experiments compare. *)
let scenario_configs =
  [
    ("naive (no certification)", Config.naive);
    ("basic prepare cert only", { Config.naive with Config.prepare_certification = true; bind_data = true });
    ("commit cert only", { Config.naive with Config.commit_certification = true });
    ("full 2CM certifier", Config.full);
  ]

let view_cell (v : Correctness.t) =
  match v.Correctness.view with
  | View.Serializable _ -> "VSR"
  | View.Not_serializable -> "NOT VSR"
  | View.Too_large -> if Correctness.serializable v then "VSR (criterion)" else "violates criterion"

let outcome_cell o =
  match o with
  | Some Coordinator.Committed -> "committed"
  | Some (Coordinator.Aborted (Coordinator.Refused (_, r))) -> Fmt.str "refused (%a)" Wire.pp_refusal r
  | Some (Coordinator.Aborted _) -> "aborted"
  | None -> "STUCK"

let scenario_table ?metrics ~title ~note ~scenario () =
  let rows =
    List.map
      (fun (name, certifier) ->
        let obs = Obs.create () in
        let r : Scenario.run = scenario ~certifier ~obs in
        let reg = Obs.metrics obs in
        absorb metrics reg;
        let outcomes = List.map (fun (l, o) -> Fmt.str "%s %s" l (outcome_cell o)) r.Scenario.outcomes in
        let locals =
          List.map (fun (l, ok) -> Fmt.str "%s %s" l (if ok then "ok" else "failed")) r.Scenario.locals
        in
        let v = r.Scenario.report.Report.verdict in
        [
          name;
          String.concat ", " (outcomes @ locals);
          T.i r.Scenario.resubmissions;
          T.i (List.length v.Correctness.distortions);
          T.b (v.Correctness.cg_cycle <> None);
          view_cell v;
          T.i (Tracer.length (Obs.trace obs));
          T.i (Histogram.max_value (Registry.histogram_totals reg "agent.commit_delay"));
        ])
      scenario_configs
  in
  T.make ~title
    ~headers:
      [ "certifier"; "outcomes"; "resubmits"; "global distortions"; "CG cycle"; "verdict";
        "trace events"; "max commit delay" ]
    ~notes:[ note ] rows

(* E1 — history H1: global view distortion (paper §3, §4). *)
let e1_global_view_distortion ?metrics () =
  scenario_table ?metrics ~title:"E1  H1: global view distortion (paper S3/S4)"
    ~note:
      "T1's prepared subtransaction is aborted after the global commit; T2 deletes Y^a and updates X^a. \
       Without basic prepare certification the resubmission gets another view/decomposition; 'commit cert \
       only' livelocks on this history (the basic certification is also a liveness mechanism)."
    ~scenario:(fun ~certifier ~obs -> Scenario.h1 ~certifier ~obs ())
    ()

(* E2 — history H2: local view distortion, direct conflict (paper §5.1). *)
let e2_local_view_distortion ?metrics () =
  scenario_table ?metrics ~title:"E2  H2: local view distortion via a direct conflict (paper S5.1)"
    ~note:
      "T3 reads Z^b from T1 while T1's subtransaction at a is still recovering; without commit \
       certification the local commits at a and b are in opposite orders and L4 reads an impossible view."
    ~scenario:(fun ~certifier ~obs -> Scenario.h2 ~certifier ~obs ())
    ()

(* E3 — history H3: local view distortion through indirect conflicts only
   (paper §5.1): no prepare-order argument applies; the serial numbers
   carry the day. *)
let e3_indirect_distortion ?metrics () =
  scenario_table ?metrics ~title:"E3  H3: local view distortion via indirect conflicts only (paper S5.1)"
    ~note:
      "T5 and T6 touch disjoint items; only local transactions connect them. Commit certification \
       (SN order) aligns the commit orders; the full certifier instead conservatively refuses T6."
    ~scenario:(fun ~certifier ~obs -> Scenario.h3 ~certifier ~obs ())
    ()

(* E4 — the §5.3 COMMIT-overtakes-PREPARE race and the prepare
   certification extension: one scenario per seed. *)
let e4_overtaking ~seeds ~jobs ?metrics () =
  let jitters = [ 4_000; 8_000; 16_000; 32_000 ] in
  let count certifier jitter =
    let runs =
      sweep ?metrics ~jobs ~seeds (fun ~obs seed ->
          let r = Scenario.overtake ~certifier ~obs ~jitter ~seed () in
          (r, r.Scenario.o_run.Scenario.report.Report.verdict))
    in
    let n p = List.length (List.filter p runs) in
    ( n (fun r -> r.result.Scenario.overtaken),
      n cyclic,
      List.fold_left (fun acc r -> acc + r.result.Scenario.extension_refusals) 0 runs )
  in
  let rows =
    List.map
      (fun jitter ->
        let no_ext = { Config.full with Config.certification_extension = false } in
        let r1, c1, _ = count no_ext jitter in
        let r2, c2, f2 = count Config.full jitter in
        [ T.i jitter; T.i r1; T.i c1; T.i r2; T.i f2; T.i c2 ])
      jitters
  in
  T.make ~title:(Fmt.str "E4  COMMIT overtakes PREPARE (paper S5.3), %d seeds per cell" seeds)
    ~headers:
      [ "jitter (ticks)"; "races (no ext)"; "CG cycles (no ext)"; "races (full)"; "ext refusals (full)";
        "CG cycles (full)" ]
    ~notes:
      [
        "Two non-conflicting global transactions over two sites; network base delay 500 ticks.";
        "The race needs one PREPARE delivery to outlast a competitor's whole prepare-commit round";
        "trip, so it stays rare (<1%) at any jitter — but without the extension every occurrence";
        "becomes a commit-order-graph cycle, and with it, a refusal.";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Driver-based experiments                                            *)
(* ------------------------------------------------------------------ *)

(* E5 — §6 restrictiveness, failure-free: "in a failure-free situation
   [2CM] does not abort any transactions", vs CGM's coarse-granularity
   scheduling and the ticket scheme's forced total order. *)
let e5_restrictiveness ~seeds ~jobs ?metrics () =
  let protocols =
    [
      ("2CM", Driver.Two_pca Config.full);
      ("ticket", Driver.Two_pca Config.ticket);
      ("CGM-site", Driver.Cgm_baseline Cgm.Site_level);
      ("CGM-table", Driver.Cgm_baseline Cgm.Table_level);
    ]
  in
  let rows =
    List.concat_map
      (fun mpl ->
        List.map
          (fun (name, protocol) ->
            let runs =
              driver_runs ?metrics ~jobs ~seeds
                {
                  Driver.default_setup with
                  Driver.protocol;
                  spec = Spec.make ~n_global:120 ~arrival:(closed mpl) ();
                }
            in
            let cgm f = mean_i (fun r -> match r.result.Driver.cgm with Some s -> f s | None -> 0) runs in
            [
              T.i mpl; name; T.pct (abort_rate runs); T.f1 (retries runs); T.f1 (throughput runs);
              T.f1 (percentile latency 95 runs /. 1000.0); T.f1 (cgm (fun s -> s.Cgm.gate_delays));
              T.f1 (cgm (fun s -> s.Cgm.glock_timeouts));
            ])
          protocols)
      [ 2; 4; 8; 16 ]
  in
  T.make ~title:(Fmt.str "E5  Failure-free restrictiveness (paper S6), %d seeds per cell" seeds)
    ~headers:
      [ "MPL"; "protocol"; "abort rate"; "retries"; "commits/s"; "p95 latency (ms)"; "CGM gate delays";
        "CGM glock timeouts" ]
    ~notes:
      [
        "Paper: failure-free, 2CM aborts nothing; CGM's site-granularity scheduling rejects/delays";
        "histories 2CM accepts, and the ticket scheme forces a total order that conflicts never asked for.";
      ]
    rows

(* E6 — the failure sweep with ablations: which certification step stops
   which anomaly class. *)
let e6_failure_sweep ~seeds ~jobs ?metrics () =
  let variants =
    [
      ("2CM (full)", Config.full);
      ("naive", Config.naive);
      ("no prepare cert", Config.without_prepare_certification);
      ("no commit cert", Config.without_commit_certification);
      ("no extension", Config.without_extension);
      ("no DLU binding", Config.without_dlu);
    ]
  in
  let spec =
    Spec.make ~n_global:80 ~arrival:(closed 6)
      ~key_dist:(Spec.Zipf { theta = 0.9 })
      ~keys_per_site:12 ~n_tables:2 ~local_write_ratio:0.7 ~local_mpl_per_site:2 ()
  in
  let rows =
    List.concat_map
      (fun p ->
        List.map
          (fun (name, certifier) ->
            let runs =
              driver_runs ?metrics ~jobs ~seeds
                {
                  Driver.default_setup with
                  Driver.protocol = Driver.Two_pca certifier;
                  failure = Failure.prepared_rate p;
                  spec;
                  time_limit = 30_000_000;
                }
            in
            [
              Fmt.str "%.2f" p; name; T.f1 (commits runs); T.f1 (resubmits runs);
              T.f1 (counter "agent.refused_extension" runs +. counter "agent.refused_interval" runs);
              T.pct (abort_rate runs); runs_where distorted runs; runs_where cyclic runs; stuck_runs runs;
            ])
          variants)
      [ 0.0; 0.1; 0.3 ]
  in
  T.make ~title:(Fmt.str "E6  Unilateral-abort sweep with ablations, %d seeds per cell" seeds)
    ~headers:
      [ "P(abort|prepared)"; "certifier"; "commits"; "resubmits"; "cert refusals"; "abort rate";
        "distortion runs"; "CG-cycle runs"; "stuck runs" ]
    ~notes:
      [
        "Full 2CM must show 0 distortion and 0 CG-cycle runs at every failure rate.";
        "'cert refusals' are certification aborts (extension + interval); the residual abort rate is";
        "lock timeouts under this deliberately contended workload, which every S2PL system shares.";
        "CG cycles are the paper's *sufficient* safety criterion: at P=0 the cycles seen without";
        "commit certification involve only non-conflicting transactions (benign message races);";
        "under failures they are the real H2/H3 anomaly. The certifier prevents both.";
        "'no prepare cert' can livelock (stuck runs): prepared subtransactions deadlock through";
        "resubmitted locks — the Correctness Invariant is also what makes recovery live.";
      ]
    rows

(* E7 — §5.2: clock drift causes only unnecessary aborts, never
   incorrectness. *)
let e7_clock_drift ~seeds ~jobs ?metrics () =
  let spec = Spec.make ~n_global:100 ~arrival:(closed 6) () in
  let rows =
    List.map
      (fun drift ->
        let runs =
          driver_runs ?metrics ~jobs ~seeds
            {
              Driver.default_setup with
              Driver.protocol = Driver.Two_pca Config.full;
              failure = Failure.prepared_rate 0.1;
              clock_of_site = (fun i -> Clock.make ~offset:(if i mod 2 = 0 then drift else -drift) ());
              spec;
            }
        in
        [
          T.i drift; T.f1 (commits runs); T.f1 (counter "agent.refused_extension" runs); T.f1 (retries runs);
          T.pct (abort_rate runs); runs_where distorted runs; runs_where cyclic runs;
        ])
      [ 0; 1_000; 10_000; 100_000 ]
  in
  T.make ~title:(Fmt.str "E7  Clock drift (paper S5.2), full 2CM, %d seeds per cell" seeds)
    ~headers:
      [ "drift (+/- ticks)"; "commits"; "ext refusals"; "retries"; "abort rate"; "distortion runs";
        "CG-cycle runs" ]
    ~notes:
      [ "Paper: 'The drift may cause unnecessary aborts, only.' Correctness columns must stay at 0." ]
    rows

(* E8 — Appendix C: commit-certification retry behaviour vs network
   jitter. *)
let e8_commit_retry ~seeds ~jobs ?metrics () =
  let spec =
    Spec.make ~n_global:100 ~arrival:(closed 8) ~key_dist:(Spec.Zipf { theta = 0.9 }) ()
  in
  let rows =
    List.map
      (fun jitter ->
        let runs =
          driver_runs ?metrics ~jobs ~seeds
            {
              Driver.default_setup with
              Driver.protocol = Driver.Two_pca Config.full;
              failure = Failure.prepared_rate 0.1;
              net = { Network.default_config with base_delay = 500; jitter };
              spec;
            }
        in
        [
          T.i jitter; T.f1 (commits runs); T.f1 (counter "agent.commit_retries" runs);
          T.f1 (mean (fun r -> Histogram.mean (Registry.histogram_totals r.reg latency)) runs /. 1000.0);
          T.f1 (percentile latency 95 runs /. 1000.0);
        ])
      [ 0; 1_000; 2_000; 4_000 ]
  in
  T.make ~title:(Fmt.str "E8  Commit-certification retries vs network jitter (Appendix C), %d seeds" seeds)
    ~headers:[ "jitter (ticks)"; "commits"; "commit-cert retries"; "mean latency (ms)"; "p95 (ms)" ]
    ~notes:[ "Retries measure how often a COMMIT had to wait behind a smaller serial number." ]
    rows

(* E10 — heterogeneity and site crashes. The setting the paper is *for*:
   LDBSs that differ in speed, deadlock handling and failure behaviour
   (§1: heterogeneity means the implementation of the commands differs per
   site and is unknown to the HMDBS builder; §1 also folds site crashes
   into unilateral aborts as "collective abort"). Site 0 is a slow
   mainframe that periodically crashes, site 1 a mid-range system with
   wait-for-graph deadlock detection, site 2 a fast system with single
   aborts; the certifier must keep the mix correct. *)
let e10_heterogeneity ~seeds ~jobs ?metrics () =
  let mainframe =
    {
      Dtm.ltm_config = { Ltm_config.default with Ltm_config.cmd_latency = 800; op_latency = 150 };
      clock = Clock.make ~offset:3_000 ();
      failure = Failure.crashes ~mean_interval:150_000 ~horizon:2_000_000;
    }
  in
  let midrange =
    {
      Dtm.ltm_config = { Ltm_config.default with Ltm_config.deadlock = Ltm_config.Detection_and_timeout };
      clock = Clock.make ~offset:(-1_000) ();
      failure = Failure.disabled;
    }
  in
  let fast =
    {
      Dtm.ltm_config = { Ltm_config.default with Ltm_config.cmd_latency = 30; op_latency = 10 };
      clock = Clock.perfect;
      failure = Failure.prepared_rate 0.15;
    }
  in
  let override i = List.nth_opt [ mainframe; midrange; fast ] i in
  let spec = Spec.make ~n_sites:3 ~n_global:100 ~arrival:(closed 6) () in
  let variants = [ ("2CM (full)", Config.full); ("naive", Config.naive) ] in
  let rows =
    List.map
      (fun (name, certifier) ->
        let runs =
          driver_runs ?metrics ~jobs ~seeds
            {
              Driver.default_setup with
              Driver.protocol = Driver.Two_pca certifier;
              site_override = Some override;
              spec;
            }
        in
        [
          name; T.f1 (commits runs); T.f1 (resubmits runs); T.pct (abort_rate runs); T.f1 (throughput runs);
          runs_where distorted runs; runs_where cyclic runs;
        ])
      variants
  in
  T.make
    ~title:
      (Fmt.str "E10 Heterogeneous sites: slow crashing mainframe + detection-based midrange + fast failing site, %d seeds"
         seeds)
    ~headers:[ "certifier"; "commits"; "resubmits"; "abort rate"; "commits/s"; "distortion runs"; "CG-cycle runs" ]
    ~notes:
      [
        "Site 0: 800-tick commands, +3ms clock, periodic site crashes (collective aborts).";
        "Site 1: wait-for-graph deadlock detection, -1ms clock. Site 2: fast, 15% prepared-abort rate.";
        "The decentralized certifier needs no knowledge of any of this; correctness columns must be 0.";
      ]
    rows

(* E11 — site crashes and 2PC recovery from the Agent log. The paper folds
   site crashes into unilateral aborts ("collective abort"); the Agent
   log's force-written prepare and commit records (Appendix B/C) are what
   make recovery after a *full* agent crash possible: in-doubt
   subtransactions are rebuilt by resubmission, coordinators retransmit
   unacknowledged decisions, and duplicates are answered idempotently. *)
let e11_crash_recovery ~seeds ~jobs ?metrics () =
  let spec = Spec.make ~n_global:80 ~arrival:(closed 6) () in
  let schedule_of_crashes n =
    (* n crashes spread over the expected run, alternating sites. *)
    List.init n (fun i -> (20_000 + (i * 30_000), i mod 3))
  in
  let rows =
    List.concat_map
      (fun n_crashes ->
        List.map
          (fun (name, certifier) ->
            let runs =
              driver_runs ?metrics ~jobs ~seeds
                {
                  Driver.default_setup with
                  Driver.protocol = Driver.Two_pca certifier;
                  failure = Failure.prepared_rate 0.05;
                  crash_schedule = schedule_of_crashes n_crashes;
                  spec;
                }
            in
            [
              T.i n_crashes; name; T.f1 (commits runs); T.f1 (resubmits runs); T.pct (abort_rate runs);
              runs_where distorted runs; runs_where cyclic runs; stuck_runs runs;
            ])
          [ ("2CM (full)", Config.full) ])
      [ 0; 2; 6 ]
  in
  T.make ~title:(Fmt.str "E11 Site crashes + Agent-log recovery, %d seeds per cell" seeds)
    ~headers:
      [ "crashes"; "certifier"; "commits"; "resubmits"; "abort rate"; "distortion runs"; "CG-cycle runs";
        "stuck runs" ]
    ~notes:
      [
        "Full site crashes (volatile agent state lost, Agent log survives) with instant reboot,";
        "plus a 5% prepared-abort rate. Every run must finish (0 stuck) and verify clean.";
      ]
    rows

(* E12 — local deadlock resolution strategies. The paper assumes "timeout
   based deadlock resolution" for 2CM (§6) and contrasts CGM's elaborate
   three-graph machinery; execution autonomy means each LDBS brings its
   own policy anyway. The certifier must stay correct over all of them —
   wounds are just unilateral aborts to it — while throughput and abort
   rates differ. *)
let e12_deadlock_policies ~seeds ~jobs ?metrics () =
  let policies =
    [
      ("timeout", Ltm_config.Timeout_only);
      ("detection", Ltm_config.Detection_and_timeout);
      ("wait-die", Ltm_config.Wait_die);
      ("wound-wait", Ltm_config.Wound_wait);
    ]
  in
  let spec =
    Spec.make ~n_global:100 ~arrival:(closed 10)
      ~key_dist:(Spec.Zipf { theta = 1.0 })
      ~keys_per_site:10 ~n_tables:1
      ~mix:{ Spec.sites_per_txn = 2; ops_per_site = 3; write_ratio = 0.8 }
      ()
  in
  let rows =
    List.map
      (fun (name, deadlock) ->
        let runs =
          driver_runs ?metrics ~jobs ~seeds
            {
              Driver.default_setup with
              Driver.protocol = Driver.Two_pca Config.full;
              failure = Failure.prepared_rate 0.05;
              ltm = { Ltm_config.default with Ltm_config.deadlock };
              spec;
            }
        in
        let totals f = mean_i (fun r -> f r.result.Driver.totals) runs in
        [
          name;
          T.f1 (commits runs);
          T.f1 (totals (fun t -> t.Dtm.lock_timeouts));
          T.f1 (totals (fun t -> t.Dtm.deadlock_victims));
          T.f1 (totals (fun t -> t.Dtm.unilateral_aborts));
          T.pct (abort_rate runs);
          T.f1 (throughput runs);
          T.b (clean ~stuck runs);
        ])
      policies
  in
  T.make ~title:(Fmt.str "E12 Local deadlock resolution under contention, %d seeds per cell" seeds)
    ~headers:
      [ "policy"; "commits"; "lock timeouts"; "deadlock victims"; "involuntary aborts"; "abort rate";
        "commits/s"; "clean" ]
    ~notes:
      [
        "Hot-key workload (Zipf 1.0, 10 keys, 80% writes, MPL 10) with a 5% prepared-abort rate.";
        "'involuntary aborts' counts injector aborts plus wound-wait wounds (a wound IS a unilateral";
        "abort to the agent, which simply resubmits). 'clean' = every run finished, and its history";
        "has no distortion, an acyclic CG, rigorous sites, consistent values and no torn commit.";
      ]
    rows

(* E13 — the unreliable network. The paper's model assumes messages are
   neither lost nor corrupted (§2); this experiment relaxes exactly that
   assumption and checks that the hardened 2PC layer — PREPARE and
   decision retransmission, set-based vote/ack counting, idempotent
   replay from the Agent log, delivery-time drops for down sites — turns
   an unreliable network back into the reliable one the certifier needs.
   Drops and duplicates at rate p each, plus real reboot windows during
   which a crashed site is unreachable (deliveries become counted drops).
   Full 2CM must stay distortion-free, acyclic and live at every cell;
   the naive certifier is the ablation. *)
let e13_unreliable_net ~seeds ~jobs ?metrics () =
  let spec = Spec.make ~n_global:60 ~arrival:(closed 4) () in
  let crash_schedule = [ (20_000, 0); (60_000, 1); (120_000, 2) ] in
  let rows =
    List.concat_map
      (fun rate ->
        List.concat_map
          (fun reboot ->
            List.map
              (fun (name, certifier) ->
                let runs =
                  driver_runs ?metrics ~jobs ~seeds
                    {
                      Driver.default_setup with
                      Driver.protocol = Driver.Two_pca certifier;
                      failure = Failure.prepared_rate 0.1;
                      net =
                        {
                          Network.default_config with
                          faults = { Network.no_faults with Network.drop = rate; dup = rate };
                        };
                      crash_schedule;
                      reboot_delay = reboot;
                      spec;
                      time_limit = 30_000_000;
                    }
                in
                [
                  Fmt.str "%.0f%%" (rate *. 100.);
                  T.i reboot;
                  name;
                  T.f1 (commits runs);
                  T.f1 (counter "net.dropped" runs);
                  T.f1 (counter "net.duplicated" runs);
                  T.f1 (counter "coord.retransmissions" runs);
                  T.f1 (percentile latency 95 runs /. 1000.0);
                  runs_where distorted runs;
                  runs_where cyclic runs;
                  stuck_runs runs;
                ])
              [ ("2CM (full)", Config.full); ("naive", Config.naive) ])
          [ 0; 25_000 ])
      [ 0.0; 0.02; 0.05 ]
  in
  T.make ~title:(Fmt.str "E13 Unreliable network: drop/dup faults + reboot windows, %d seeds per cell" seeds)
    ~headers:
      [ "drop/dup"; "reboot"; "certifier"; "commits"; "drops"; "dups"; "retransmits"; "p95 (ms)";
        "distortion runs"; "CG-cycle runs"; "stuck runs" ]
    ~notes:
      [
        "Each message is dropped and (independently) duplicated with probability p; three site";
        "crashes per run, with 'reboot' ticks of real downtime (deliveries to a down site are";
        "counted drops). 2CM rows must show 0 distortion / 0 CG-cycle / 0 stuck runs everywhere:";
        "retransmission plus idempotent replay from the Agent log restores the reliable-network";
        "assumption the certifier is built on. The naive ablation distorts under the same faults.";
      ]
    rows

(* E14 — coordinator durability and in-doubt termination. E11/E13 crash
   the agents but kept the coordinators immortal; here a scheduled crash
   also takes down every coordinator hosted at the site. Each reboots
   from the site's Coordinator_log (force-written participant set +
   decision, Appendix B made symmetric) and re-drives its decision — or
   presumes abort when no decision record exists — while prepared
   participants run the in-doubt termination protocol, asking the
   coordinator with DECISION-REQ on a timer. The sweep varies when the
   crashes start (how much 2PC traffic is in flight) against the message
   drop/duplication rate; the in-doubt columns measure how long
   participants were actually blocked. Every cell must stay live and
   clean — without this machinery the crashed coordinators' prepared
   participants hold their locks forever. *)
let e14_coordinator_crashes ~seeds ~jobs ?metrics () =
  let spec = Spec.make ~n_global:60 ~arrival:(closed 4) () in
  let rows =
    List.concat_map
      (fun first_crash ->
        List.map
          (fun rate ->
            let runs =
              driver_runs ?metrics ~jobs ~seeds
                {
                  Driver.default_setup with
                  Driver.protocol = Driver.Two_pca Config.full;
                  failure = Failure.prepared_rate 0.05;
                  net =
                    {
                      Network.default_config with
                      faults = { Network.no_faults with Network.drop = rate; dup = rate };
                    };
                  crash_schedule = List.init 3 (fun k -> (first_crash + (k * 30_000), k mod 3));
                  reboot_delay = 20_000;
                  crash_coordinators = true;
                  spec;
                  time_limit = 30_000_000;
                }
            in
            (* High-water of the per-site in-doubt gauges: the worst
               simultaneous blocking any single run exhibited. *)
            let in_doubt_high r =
              List.fold_left
                (fun acc (row : Registry.row) ->
                  match row.Registry.value with
                  | Registry.Gauge_value { high_water; _ } when row.Registry.name = "agent.in_doubt" ->
                      max acc high_water
                  | _ -> acc)
                0 (Registry.rows r.reg)
            in
            [
              T.i first_crash;
              Fmt.str "%.0f%%" (rate *. 100.);
              T.f1 (commits runs);
              T.f1 (counter "coord.recovered_decisions" runs);
              T.f1 (counter "coord.presumed_aborts" runs);
              T.f1 (counter "agent.inquiries" runs);
              T.i (List.fold_left (fun acc r -> max acc (in_doubt_high r)) 0 runs);
              T.f1 (percentile "agent.in_doubt_time" 95 runs /. 1000.0);
              stuck_runs runs;
              T.b (clean ~stuck runs);
            ])
          [ 0.0; 0.05 ])
      [ 10_000; 40_000 ]
  in
  T.make
    ~title:
      (Fmt.str "E14 Coordinator crashes: log recovery + in-doubt termination, %d seeds per cell" seeds)
    ~headers:
      [ "first crash"; "drop/dup"; "commits"; "recovered decisions"; "presumed aborts"; "inquiries";
        "max in-doubt"; "in-doubt p95 (ms)"; "stuck runs"; "clean" ]
    ~notes:
      [
        "Three site crashes per run (20k-tick reboot windows) now ALSO crash the coordinators";
        "hosted there. A rebooted coordinator re-drives the decision from its force-written log,";
        "or presumes abort when it crashed before deciding; prepared participants left in doubt";
        "send DECISION-REQ inquiries. 'max in-doubt' is the gauge high-water (worst simultaneous";
        "blocking); the p95 window is prepare-to-decision time for subtransactions that were in";
        "doubt. Every cell must be live (0 stuck) and clean — the pre-durability coordinator";
        "stranded these participants forever (the explore I5 ablation shows the counterexample).";
      ]
    rows

(* E15 — the certifier hot path under open-loop load: group commit and
   batched certification. The paper's protocol pays two forced log writes
   per participant (prepare + commit records, Appendix B/C) and three per
   coordinator round (begin, prepared, decision) — at saturation the
   force is the bottleneck, not certification. Group commit stages those
   records and pays one synchronous force per batch (bounded by the flush
   window and max_batch), amortizing the alive-interval/min-SN checks and
   the LTM round-trip over the whole batch at flush. The sweep offers an
   open-loop Poisson arrival stream (latency measured from *arrival*, so
   queueing under saturation lands in p99) at increasing rates, with
   batching off and on; correctness columns must stay clean in both. *)
let e15_saturation ~seeds ~jobs ?metrics () =
  let spec rate =
    Spec.make ~n_global:200 ~keys_per_site:200
      ~arrival:(Spec.Open { rate; max_in_flight = 48 })
      ~key_dist:(Spec.Zipf { theta = 0.6 })
      ~local_long_tail:0.05 ()
  in
  (* The batching variant widens the window past {!Config.grouped}: at
     these arrival rates a 25 ms window is what fills 32-record batches,
     and the open loop means the added force latency costs queueing
     delay, not throughput. *)
  let gc = { Config.full with Config.group_commit_window = 25_000; max_batch = 32 } in
  let variants = [ ("off", Config.full); ("on", gc) ] in
  let rows =
    List.concat_map
      (fun rate ->
        List.map
          (fun (gc_name, certifier) ->
            let runs =
              driver_runs ?metrics ~jobs ~seeds
                {
                  Driver.default_setup with
                  Driver.protocol = Driver.Two_pca certifier;
                  spec = spec rate;
                  time_limit = 60_000_000;
                }
            in
            let forces_per_commit (r : Driver.result) =
              let t = r.Driver.totals in
              let c = Stats.committed r.Driver.stats in
              if c = 0 then 0.0
              else float_of_int (t.Dtm.agent_log_forces + t.Dtm.coord_log_forces) /. float_of_int c
            in
            let batch_fill (r : Driver.result) =
              let t = r.Driver.totals in
              if t.Dtm.gc_flushes = 0 then 0.0
              else float_of_int t.Dtm.gc_staged /. float_of_int t.Dtm.gc_flushes
            in
            [
              Fmt.str "%.0f" rate;
              gc_name;
              T.f1 (commits runs);
              T.f1 (throughput runs);
              T.f1 (percentile latency 99 runs /. 1000.0);
              Fmt.str "%.2f" (mean (fun r -> forces_per_commit r.result) runs);
              T.f1 (mean_i (fun r -> r.result.Driver.totals.Dtm.gc_flushes) runs);
              T.f1 (mean (fun r -> batch_fill r.result) runs);
              stuck_runs runs;
              T.b (clean ~stuck runs);
            ])
          variants)
      [ 50.0; 150.0; 500.0; 1_500.0 ]
  in
  T.make
    ~title:(Fmt.str "E15 Open-loop saturation: group commit + batched certification, %d seeds per cell" seeds)
    ~headers:
      [ "offered (txn/s)"; "group commit"; "commits"; "commits/s"; "p99 (ms)"; "forces/commit";
        "coord flushes"; "avg coord batch"; "stuck runs"; "clean" ]
    ~notes:
      [
        "Poisson arrivals (latency from arrival, queueing included), 200 globals per run, 48";
        "in-service cap, 5% long-tail locals, 25 ms window / 32-record batches when on. The top";
        "rates overload the certifier: commits/s plateaus at saturation and p99 absorbs the queue.";
        "'forces/commit' counts every synchronous agent- and coordinator-log force divided by";
        "committed globals: batching must cut it by an order of magnitude while the correctness";
        "columns ('clean', stuck) stay identical to the off rows. 'avg coord batch' is staged";
        "records per coordinator-side flush (agent batches are separate).";
      ]
    rows

(* E16 — the multicore execution engine: wall-clock throughput of the
   sharded conservative-window scheduler as sites and domains grow. Every
   cell at the same (sites, seed) runs the SAME virtual-time schedule —
   the engine is domain-count-invariant — so the committed column must be
   constant down each sites block while wall time falls; 'speedup' is
   wall time at domains=1 over wall time at that row. Speedup above 1
   needs actual cores: on a single-core host the barrier overhead makes
   every parallel row a slight loss, which is why the CI gate asserts
   cleanliness and invariance, not speedup. The seeds run one after
   another: each run times wall clock on the domains it is given. *)
let e16_multicore ~seeds ~domains ?metrics () =
  let sites_list = [ 4; 16; 64 ] in
  let rows =
    List.concat_map
      (fun n_sites ->
        let spec =
          Spec.make ~n_sites ~n_global:(10 * n_sites)
            ~arrival:(closed (2 * n_sites))
            ~local_txn_cap:(20 * n_sites) ()
        in
        let cell d =
          let runs =
            driver_runs ?metrics ~jobs:1 ~seeds ~drive:(Driver.run_windowed ~domains:d)
              { Driver.default_setup with Driver.spec }
          in
          (runs, List.fold_left (fun acc r -> acc +. r.result.Driver.wall_s) 0.0 runs)
        in
        let base = cell 1 in
        let _, base_wall = base in
        List.map
          (fun d ->
            let runs, wall = if d = 1 then base else cell d in
            let committed = commits runs in
            [
              T.i n_sites;
              T.i d;
              T.f1 committed;
              Fmt.str "%.3f" wall;
              Fmt.str "%.0f" (if wall > 0.0 then committed *. float_of_int seeds /. wall else 0.0);
              Fmt.str "%.2fx" (if wall > 0.0 then base_wall /. wall else 0.0);
              stuck_runs runs;
              (if clean ~stuck runs then "ok" else "VIOLATION");
            ])
          domains)
      sites_list
  in
  T.make
    ~title:
      (Fmt.str "E16 Multicore engine: sites on domains, conservative windows, %d seed%s per cell"
         seeds
         (if seeds = 1 then "" else "s"))
    ~headers:
      [ "sites"; "domains"; "committed"; "wall (s)"; "wall txns/s"; "speedup"; "stuck runs"; "clean" ]
    ~notes:
      [
        "One engine/network/trace per site, sites round-robin over OCaml domains, cross-site";
        "messages through lock-free inboxes, barriers between lookahead-bounded virtual-time";
        "windows (lookahead = net base delay). The schedule is domain-count-invariant, so";
        "'committed' must be constant down each sites block; 'wall (s)' is the execution phase";
        "only and 'speedup' is against the domains=1 row of the same block. Wall-clock speedup";
        Fmt.str
          "requires real cores (this host advertises %d); correctness columns must hold anywhere."
          (Domain.recommended_domain_count ());
      ]
    rows

(* E17 — commit protocols under coordinator crashes: how long an
   in-doubt participant stays blocked. Under plain 2PC the decision
   lives only at the coordinator, so a participant prepared when the
   coordinator's site goes down inquires into a void until the site
   reboots — its blocking window tracks reboot_delay. Replicating the
   decision register changes that: backup-TM (one acceptor on another
   site) and Paxos Commit (2f+1 acceptors, f=1) let the inquiry reach a
   surviving acceptor, which runs a recovery ballot and answers within
   a couple of inquiry intervals — the window becomes independent of
   how long the crashed site stays down.

   Random crash trains almost never catch the tiny prepared-undecided
   window on a reliable network, so each run STAGES the stranding: one
   global transaction at a time, legs on the two sites that do NOT host
   its coordinator, and a saboteur that crashes the coordinator's site
   the moment a remote participant reports prepared (the scenario
   saboteur idiom). Every staged transaction leaves both participants
   in doubt with the coordinator down, and the in-doubt histogram
   measures exactly how long each protocol pins their locks. *)
let e17_commit_protocols ~seeds ~jobs ?metrics () =
  let module Engine = Hermes_sim.Engine in
  let module Agent = Hermes_core.Agent in
  let module Program = Hermes_core.Program in
  let strandings = 12 in
  let protos =
    [ ("2pc", Config.Two_pc); ("backup-tm", Config.backup_tm); ("paxos f=1", Config.Paxos { f = 1 }) ]
  in
  (* One seed: the strandings that resolved and the surviving
     participants' blocking windows, with the recorded history. *)
  let cell_run proto reboot_delay ~obs seed =
    let certifier =
      { Config.full with Config.commit_proto = proto; decision_inquiry_interval = 10_000 }
    in
    let engine = Engine.create () in
    let rng = Rng.create ~seed in
    let dtm =
      Dtm.create ~engines:[| engine |] ~rng ~net_config:Network.default_config ~certifier ~obs
        ~crash_coordinators:true
        ~site_specs:(Array.make 3 Dtm.default_site_spec)
        ()
    in
    List.iter
      (fun s -> List.iter (fun k -> Dtm.load dtm s ~table:"X" ~key:k ~value:100) (List.init 4 Fun.id))
      (Dtm.site_ids dtm);
    let finished = ref 0 in
    let rec stage k =
      if k < strandings then begin
        (* The coordinator is hosted at the FIRST leg's site, so pinning
           that leg to site 0 pins every round's coordinator there. The
           saboteur crashes site 0 the moment a remote participant
           reports prepared — stranding the survivors at sites 1 and 2,
           whose windows are what the table measures (site 0's own leg
           dies with the crash; its window would just re-measure the
           reboot, identically under every protocol). *)
        let key = k mod 4 in
        let result = ref None in
        ignore
          (Dtm.submit dtm
             (Program.make
                [
                  (Site.of_int 0, Command.Update { table = "X"; key; delta = 2 });
                  (Site.of_int 1, Command.Update { table = "X"; key; delta = -1 });
                  (Site.of_int 2, Command.Update { table = "X"; key; delta = -1 });
                ])
             ~on_done:(fun o ->
               result := Some o;
               incr finished;
               (* wait out the reboot so strandings never overlap *)
               Engine.schedule_unit engine ~delay:(reboot_delay + 20_000) (fun () -> stage (k + 1))));
        let agent = Dtm.agent dtm (Site.of_int 1) in
        let sabotaged = ref false in
        let rec poll () =
          if (not !sabotaged) && !result = None && Time.to_int (Engine.now engine) < 20_000_000
          then
            if Agent.n_prepared agent > 0 then begin
              sabotaged := true;
              Dtm.crash_site ~reboot_delay dtm (Site.of_int 0)
            end
            else Engine.schedule_unit engine ~delay:100 poll
        in
        Engine.schedule_unit engine ~delay:100 poll
      end
    in
    stage 0;
    Engine.run engine;
    (* Only the SURVIVING participants' blocking windows: sites 1 and 2. *)
    let reg = Obs.metrics obs in
    let survivor_windows =
      Histogram.merge
        (Registry.histogram reg ~site:(Site.of_int 1) "agent.in_doubt_time")
        (Registry.histogram reg ~site:(Site.of_int 2) "agent.in_doubt_time")
    in
    ((!finished, survivor_windows), Correctness.check (Dtm.history dtm))
  in
  let rows =
    List.concat_map
      (fun (label, proto) ->
        List.map
          (fun reboot_delay ->
            let runs = sweep ?metrics ~jobs ~seeds (cell_run proto reboot_delay) in
            let window q = mean (fun r -> float_of_int (q (snd r.result))) runs in
            [
              label;
              T.i (reboot_delay / 1000);
              Fmt.str "%d/%d" (List.fold_left (fun acc r -> acc + fst r.result) 0 runs) (strandings * seeds);
              T.f1 (counter "agent.inquiries" runs);
              T.f1 (counter "acceptor.recovery_ballots" runs);
              T.f1 (counter "acceptor.log_force_writes" runs);
              T.f1 (window (fun h -> Histogram.percentile h 50) /. 1000.0);
              T.f1 (window (fun h -> Histogram.percentile h 95) /. 1000.0);
              T.f1 (window Histogram.max_value /. 1000.0);
              T.b (clean ~stuck:(fun (finished, _) -> strandings - finished) runs);
            ])
          [ 20_000; 80_000 ])
      protos
  in
  T.make
    ~title:
      (Fmt.str
         "E17 Commit protocols under coordinator crashes: 2PC vs replicated registers, %d staged strandings x %d seeds per cell"
         strandings seeds)
    ~headers:
      [ "protocol"; "reboot (ms)"; "resolved"; "inquiries"; "recovery ballots"; "register forces";
        "in-doubt p50 (ms)"; "in-doubt p95 (ms)"; "in-doubt max (ms)"; "clean" ]
    ~notes:
      [
        "Each staged transaction's coordinator site (site 0, the first leg's host) is crashed";
        "the moment a remote participant is prepared, on a reliable network — the crash alone";
        "does the damage; the windows are those of the two SURVIVING participants, and every";
        "staged round ends in a presumed abort (the coordinator dies before deciding). Under";
        "2pc every window tracks the reboot column: the decision is only at the crashed";
        "coordinator, so DECISION-REQ inquiries fall into a void until it reboots. Under paxos";
        "f=1 an inquiry always reaches a surviving acceptor (2-of-3 quorum through any single";
        "site loss), which runs a recovery ballot and answers within a couple of 10ms inquiry";
        "intervals — p50 through max are flat in the reboot column. backup-tm sits between:";
        "its single acceptor survives two rounds in three (fast p50) but lands on the crashed";
        "site every third gid, and those strandings block until reboot (the max re-discovers";
        "F = 0; the explore kill gates show the same boundary). 'register forces' is the";
        "replication price in forced acceptor-log writes; 'resolved' must reach every staged";
        "transaction in every cell.";
      ]
    rows

(* E18: elasticity. The workload keeps running while shards move between
   sites — each move installs a new placement epoch after the loser hands
   its prepared certification state to the gainer, and in-flight
   old-epoch work bounces off the WRONG-EPOCH check and resubmits
   against the new map. The table sweeps the site count with a static
   baseline (moves = 0, the byte-identical legacy path) against a churn
   cell, and the claim is that churn is a latency/retry price, never a
   correctness one: every cell commits its full quota distortion-free. *)
let e18_elastic ~seeds ~jobs ?metrics () =
  let sites_list = [ 4; 16; 64 ] in
  let rows =
    List.concat_map
      (fun n_sites ->
        let spec =
          Spec.make ~n_sites ~n_global:(10 * n_sites)
            ~arrival:(closed (2 * n_sites))
            ~local_txn_cap:(20 * n_sites) ()
        in
        List.map
          (fun (label, moves, churn) ->
            (* spread the whole churn across the run's opening stretch so
               every move lands while traffic is still in flight *)
            let reconfigure_at = if moves = 0 then 0 else max 2_000 (40_000 / moves) in
            (* the churn cell retires the last site mid-run and re-admits
               it later: a full remove_site epoch (shards redistributed
               round-robin over the survivors after handover) followed by
               an add_site epoch under which the returnee owns nothing *)
            let leave_schedule = if churn then [ (20_000, n_sites - 1) ] else [] in
            let join_schedule = if churn then [ (60_000, n_sites - 1) ] else [] in
            let runs =
              driver_runs ?metrics ~jobs ~seeds
                { Driver.default_setup with Driver.spec; moves; reconfigure_at; leave_schedule; join_schedule }
            in
            [
              T.i n_sites;
              label;
              T.f1 (commits runs);
              T.f1 (throughput runs);
              T.f1
                (mean (fun r -> float_of_int (Stats.latency_summary r.result.Driver.stats).Stats.p95) runs
                /. 1000.0);
              T.f1 (mean_i (fun r -> r.result.Driver.totals.Dtm.refused_epoch) runs);
              T.f1 (retries runs);
              stuck_runs runs;
              T.b (clean ~stuck runs);
            ])
          [
            ("static", 0, false);
            (Fmt.str "%d moves" (max 1 (n_sites / 2)), max 1 (n_sites / 2), false);
            ("leave+join", 0, true);
          ])
      sites_list
  in
  T.make
    ~title:(Fmt.str "E18 Elastic placement: online shard moves under load, %d seeds per cell" seeds)
    ~headers:
      [ "sites"; "churn"; "commits"; "commits/s"; "p95 (ms)"; "wrong-epoch"; "retries";
        "stuck runs"; "clean" ]
    ~notes:
      [
        "Closed loop, 2 clients and 10 globals per site, one shard per site on the epoch-0 map.";
        "The churn cell moves n/2 shards while the run is in flight, each move a full epoch";
        "install with prepared-state handover (the I6 obligation the model checker discharges).";
        "'wrong-epoch' counts agent refusals of stale-epoch BEGIN/EXEC traffic; each refused";
        "round re-resolves through the new map and retries without consuming the client's";
        "give-up budget, so the churn price is the 'retries' column and a fatter p95 while";
        "'commits' stays at the full quota and 'clean' certifies the committed projection";
        "distortion- and cycle-free. The static cell replays the legacy static-placement";
        "schedule byte-identically. The leave+join cell retires the last site at t=20ms (its";
        "shards redistribute over the survivors after a prepared-state handover) and re-admits";
        "it at t=60ms owning nothing — full membership churn under the same clean gate.";
      ]
    rows

(* E19: the process-fault adversary suite. Each adversary from
   Config.adversary (lying agent, equivocating coordinator, stale-clock
   serial numbers) plus the gray-site network fault runs once undefended
   and once behind its countermeasure (decision certificates, the SN
   staleness bound, mutual-suspicion timeouts). The claim: every defended
   cell converts silent corruption (distortions, lost local commits,
   unbounded in-doubt waits) into explicit, accounted-for refusals and
   bounded blocking. Serializability damage (a view distortion or a
   commit-order cycle) is the 'anomalies' column, atomicity damage (a
   torn commit: the lying agent's dropped commit, the equivocator's
   rolled-back half) the 'torn' column. *)
let e19_adversary ~seeds ~jobs ?metrics () =
  let spec = Spec.make ~n_global:90 ~arrival:(closed 4) () in
  let gray_factor = 60 in
  let certified c = { c with Config.decision_certificates = true } in
  let lying = { Config.full with Config.adversary = { Config.no_adversary with Config.lying_sites = [ 1 ] } } in
  let equivocating = { Config.full with Config.adversary = { Config.no_adversary with Config.equivocate = true } } in
  (* the drift adversary targets the §5.3 gap, so it runs on the
     extension ablation — the full certifier already refuses stale serial
     numbers as part of certification_extension. The bound must sit below
     the run's horizon: the adversary clamps drifted timestamps at zero,
     so their apparent staleness is the delivery time itself. *)
  let drifting =
    { Config.without_extension with Config.adversary = { Config.no_adversary with Config.sn_drift = 1_000_000 } }
  in
  (* gray rows replicate the decision (Paxos f=1) so a suspicion inquiry
     has a healthy register replica to read; both rows share the
     protocol, the only delta is the suspicion timeout, sized just above
     the gray decision path's typical round trip so healthy rounds never
     trip it *)
  let gray_base = { Config.full with Config.commit_proto = Config.Paxos { f = 1 } } in
  let gray_faults =
    { Network.no_faults with Network.gray_sites = [ 0 ]; gray_factor }
  in
  let cells =
    [
      ("none", "-", Config.full, Network.no_faults);
      ("lying site 1", "off", lying, Network.no_faults);
      ("lying site 1", "certificates", certified lying, Network.no_faults);
      ("equivocate", "off", equivocating, Network.no_faults);
      ( "equivocate",
        "certs+suspicion",
        { (certified equivocating) with Config.suspicion_timeout = 30_000 },
        Network.no_faults );
      ("sn drift", "off", drifting, Network.no_faults);
      ( "sn drift",
        "drift bound",
        { drifting with Config.max_sn_drift = Some 10_000 },
        Network.no_faults );
      ("gray site 0", "off", gray_base, gray_faults);
      ( "gray site 0",
        "suspicion",
        { gray_base with Config.suspicion_timeout = 90_000 },
        gray_faults );
    ]
  in
  let rows =
    List.map
      (fun (adversary, defense, config, faults) ->
        let runs =
          driver_runs ?metrics ~jobs ~seeds
            {
              Driver.default_setup with
              Driver.spec;
              protocol = Driver.Two_pca config;
              net = { Driver.default_setup.Driver.net with Network.faults };
            }
        in
        [
          adversary;
          defense;
          T.f1 (commits runs);
          T.f1 (throughput runs);
          T.f1 (percentile latency 95 runs /. 1000.0);
          T.f1 (mean_i (fun r -> List.length r.verdict.Correctness.torn) runs);
          runs_where (fun r -> distorted r || cyclic r) runs;
          T.f1 (counter "agent.refused_drift" runs);
          T.f1 (counter "agent.suspicions" runs);
          T.f1 (counter "coord.equivocations_detected" runs);
          T.f1 (percentile "agent.in_doubt_time" 99 runs /. 1000.0);
          stuck_runs runs;
          T.b (clean ~stuck runs);
        ])
      cells
  in
  T.make
    ~title:
      (Fmt.str "E19 Adversary suite: process faults vs countermeasures, %d seeds per cell" seeds)
    ~headers:
      [ "adversary"; "defense"; "commits"; "commits/s"; "p95 (ms)"; "torn"; "anomalies";
        "drift refusals"; "suspicions"; "equivocations"; "in-doubt p99 (ms)"; "stuck runs"; "clean" ]
    ~notes:
      [
        "Every adversary is deterministic and seed-stable (Config.adversary); with every knob at";
        "its no_adversary value the machines emit the honest effect sequences byte-identically.";
        "'torn' counts globally committed transactions missing a local commit at an involved";
        "site — atomicity damage the serializability detectors cannot see. lying site 1 votes";
        "READY without preparing and drops its local commit: undefended, most commits silently";
        "lose a leg; with decision certificates the uncertified vote is rejected and the round";
        "aborts — corruption becomes explicit unavailability. equivocate sends COMMIT to half";
        "the participants and a bare ROLLBACK to the rest: undefended every commit is torn;";
        "certificates make the forged ROLLBACK detectable ('equivocations') and the suspicion";
        "timeout lets the victims terminate through the decision register. sn drift runs the";
        "stale-clock coordinator on the S5.3 extension ablation, where the zero-clamped serial";
        "numbers certify a non-serializable commit order ('anomalies'); the max_sn_drift bound";
        "refuses the stale PREPAREs ('drift refusals') and the refused rounds retry to a clean";
        "90/90. gray site 0 is alive but 60x slow — never tripping crash detection, so p95";
        "rides the gray decision path; the mutual-suspicion timeout bounds the in-doubt p99 at";
        "timeout + one healthy-quorum round trip, measured against the defended row only (the";
        "undefended row arms no termination timers and so records no in-doubt histogram).";
      ]
    rows

let tables ~seeds_of ?(jobs = 1) ?metrics ?domains () =
  [
    ("e1", fun () -> e1_global_view_distortion ?metrics ());
    ("e2", fun () -> e2_local_view_distortion ?metrics ());
    ("e3", fun () -> e3_indirect_distortion ?metrics ());
    ("e4", fun () -> e4_overtaking ~seeds:(seeds_of 2_000) ~jobs ?metrics ());
    ("e5", fun () -> e5_restrictiveness ~seeds:(seeds_of 3) ~jobs ?metrics ());
    ("e6", fun () -> e6_failure_sweep ~seeds:(seeds_of 5) ~jobs ?metrics ());
    ("e7", fun () -> e7_clock_drift ~seeds:(seeds_of 3) ~jobs ?metrics ());
    ("e8", fun () -> e8_commit_retry ~seeds:(seeds_of 3) ~jobs ?metrics ());
    ("e10", fun () -> e10_heterogeneity ~seeds:(seeds_of 5) ~jobs ?metrics ());
    ("e11", fun () -> e11_crash_recovery ~seeds:(seeds_of 5) ~jobs ?metrics ());
    ("e12", fun () -> e12_deadlock_policies ~seeds:(seeds_of 3) ~jobs ?metrics ());
    ("e13", fun () -> e13_unreliable_net ~seeds:(seeds_of 3) ~jobs ?metrics ());
    ("e14", fun () -> e14_coordinator_crashes ~seeds:(seeds_of 3) ~jobs ?metrics ());
    ("e15", fun () -> e15_saturation ~seeds:(seeds_of 3) ~jobs ?metrics ());
    ( "e16",
      fun () ->
        let domains =
          match domains with
          | Some d when d > 1 -> [ 1; d ]
          | Some _ -> [ 1 ]
          | None -> [ 1; 2; 4; 8 ]
        in
        e16_multicore ~seeds:(seeds_of 1) ~domains ?metrics () );
    ("e17", fun () -> e17_commit_protocols ~seeds:(seeds_of 3) ~jobs ?metrics ());
    ("e18", fun () -> e18_elastic ~seeds:(seeds_of 3) ~jobs ?metrics ());
    ("e19", fun () -> e19_adversary ~seeds:(seeds_of 3) ~jobs ?metrics ());
  ]

(* ------------------------------------------------------------------ *)
(* The fuzz space                                                      *)
(* ------------------------------------------------------------------ *)

let random_setup rng =
  let n_sites = Rng.int_in rng ~lo:2 ~hi:5 in
  let crash_schedule =
    if Rng.bool rng ~p:0.3 then
      List.init (Rng.int_in rng ~lo:1 ~hi:3) (fun i ->
          (10_000 + (i * Rng.int_in rng ~lo:10_000 ~hi:40_000), Rng.int rng ~bound:n_sites))
    else []
  in
  let drift = if Rng.bool rng ~p:0.3 then Rng.int_in rng ~lo:100 ~hi:5_000 else 0 in
  {
    Driver.default_setup with
    Driver.protocol = Driver.Two_pca Config.full;
    failure = Failure.prepared_rate (Rng.float rng ~bound:0.4);
    net = { Network.default_config with base_delay = 500; jitter = Rng.int rng ~bound:2_000 };
    ltm =
      {
        Ltm_config.default with
        Ltm_config.deadlock =
          Rng.choice rng
            [| Ltm_config.Timeout_only; Ltm_config.Detection_and_timeout; Ltm_config.Wait_die;
               Ltm_config.Wound_wait |];
      };
    clock_of_site = (fun i -> Clock.make ~offset:(if i mod 2 = 0 then drift else -drift) ());
    crash_schedule;
    seed = Rng.int rng ~bound:1_000_000;
    time_limit = 60_000_000;
    spec =
      (let n_global = Rng.int_in rng ~lo:20 ~hi:50 in
       let mpl = Rng.int_in rng ~lo:2 ~hi:8 in
       let sites_per_txn = Rng.int_in rng ~lo:1 ~hi:(min 3 n_sites) in
       let ops_per_site = Rng.int_in rng ~lo:1 ~hi:3 in
       let keys_per_site = Rng.int_in rng ~lo:8 ~hi:30 in
       let n_tables = Rng.int_in rng ~lo:1 ~hi:3 in
       let theta = Rng.float rng ~bound:1.1 in
       let local_mpl_per_site = Rng.int rng ~bound:3 in
       let local_write_ratio = Rng.float rng ~bound:1.0 in
       Spec.make ~n_sites ~n_global ~arrival:(closed mpl)
         ~mix:{ Spec.sites_per_txn; ops_per_site; write_ratio = 0.5 }
         ~keys_per_site ~n_tables
         ~key_dist:(Spec.Zipf { theta })
         ~local_mpl_per_site ~local_write_ratio ~local_txn_cap:300 ());
  }
