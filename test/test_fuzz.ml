(* Randomized end-to-end fuzzing: many runs across the configuration space
   (failure rates, site crashes, jitter, drift, skew, site counts,
   deadlock policies), drawn from the space `hermes fuzz` draws from
   ({!Hermes_harness.Experiment.random_setup}) and judged as `hermes fuzz`
   and the experiment tables judge a run: nothing stuck, and the history
   passes {!Hermes_history.Correctness}. The full certifier must never
   produce a global view distortion, a commit-order cycle, a non-rigorous
   local history, a read the execution contradicts, a torn commit or a
   stuck transaction — the paper's guarantees as one property over the
   whole parameter space. *)

open Hermes_kernel
module Network = Hermes_net.Network
module Config = Hermes_core.Config
module Spec = Hermes_workload.Spec
module Stats = Hermes_workload.Stats
module Driver = Hermes_workload.Driver
module Anomaly = Hermes_history.Anomaly
module Correctness = Hermes_history.Correctness
module History = Hermes_history.History

let random_setup = Hermes_harness.Experiment.random_setup

(* The verdict on a run's history, one check per component so a failure
   names what broke. *)
let check_verdict label (v : Correctness.t) =
  Alcotest.(check (list string))
    (label "no global view distortion")
    []
    (List.map (Fmt.str "%a" Anomaly.pp_global) v.Correctness.distortions);
  Alcotest.(check bool) (label "CG acyclic") true (v.Correctness.cg_cycle = None);
  Alcotest.(check bool)
    (label "rigorous everywhere")
    true
    (List.for_all (fun (_, vs) -> vs = []) v.Correctness.rigorous_violations);
  Alcotest.(check int) (label "trace and execution agree") 0 (List.length v.Correctness.value_mismatches);
  Alcotest.(check int) (label "no torn commit") 0 (List.length v.Correctness.torn);
  Alcotest.(check bool) (label "verdict ok") true (Correctness.ok v)

let check_run i setup =
  let r = Driver.run setup in
  let label s = Fmt.str "fuzz #%d: %s" i s in
  Alcotest.(check int) (label "no stuck transactions") 0 r.Driver.stuck;
  Alcotest.(check int)
    (label "quota finished")
    setup.Driver.spec.Spec.n_global
    (Stats.committed r.Driver.stats + Stats.aborted_final r.Driver.stats);
  check_verdict label (Correctness.check r.Driver.history)

let test_fuzz_full_certifier () =
  let rng = Rng.create ~seed:20260706 in
  for i = 1 to 40 do
    check_run i (random_setup rng)
  done

(* The same fuzz over the CGM baseline: correct by different means. *)
let test_fuzz_cgm () =
  let rng = Rng.create ~seed:1517 in
  for i = 1 to 10 do
    let setup = random_setup rng in
    (* CGM has no agent-crash recovery (its servers are per-subtransaction
       and the paper's comparison excludes it): drop crash schedules, keep
       unilateral aborts. *)
    let setup =
      {
        setup with
        Driver.protocol = Driver.Cgm_baseline Hermes_baselines.Cgm.Site_level;
        crash_schedule = [];
      }
    in
    let r = Driver.run setup in
    let label s = Fmt.str "cgm fuzz #%d: %s" i s in
    Alcotest.(check int) (label "no stuck transactions") 0 r.Driver.stuck;
    check_verdict label (Correctness.check r.Driver.history)
  done

(* Determinism across the space: re-running any fuzzed setup reproduces
   the exact event count. *)
let test_fuzz_deterministic () =
  let rng = Rng.create ~seed:77 in
  for _ = 1 to 5 do
    let setup = random_setup rng in
    let r1 = Driver.run setup and r2 = Driver.run setup in
    Alcotest.(check int) "same events" r1.Driver.events r2.Driver.events;
    Alcotest.(check int) "same history length" (History.length r1.Driver.history)
      (History.length r2.Driver.history)
  done

(* Faults must be masked, not tolerated-with-casualties: a run on a
   lossy, duplicating network with real reboot windows commits exactly
   the transaction set the reliable run commits at the same seed (with
   no injected unilateral aborts that is: all of them), with no
   distortion, an acyclic CG and nothing stuck. *)
let prop_lossy_run_matches_reliable =
  QCheck.Test.make ~name:"lossy+dup+reboot run commits the reliable run's transaction set" ~count:5
    QCheck.(pair (int_bound 100_000) (int_bound 1))
    (fun (seed, with_reboot) ->
      let spec =
        Spec.make ~n_global:30
          ~arrival:(Spec.Closed { mpl = 3; think_time_mean = Spec.think_time Spec.default })
          ()
      in
      let base =
        {
          Driver.default_setup with
          Driver.protocol = Driver.Two_pca Config.full;
          seed;
          spec;
          time_limit = 60_000_000;
        }
      in
      let reliable = Driver.run base in
      let faulty =
        Driver.run
          {
            base with
            Driver.net =
              {
                Network.default_config with
                faults = { Network.no_faults with Network.drop = 0.03; dup = 0.03 };
              };
            crash_schedule = [ (20_000, 0); (50_000, 1) ];
            reboot_delay = (if with_reboot = 1 then 15_000 else 0);
          }
      in
      let committed r = Stats.committed r.Driver.stats in
      committed reliable = spec.Spec.n_global
      && committed faulty = committed reliable
      && faulty.Driver.stuck = 0
      && Correctness.ok (Correctness.check faulty.Driver.history))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "fuzz"
    [
      ( "protocol-fuzz",
        [
          Alcotest.test_case "full certifier, 40 random configurations" `Slow test_fuzz_full_certifier;
          Alcotest.test_case "CGM baseline, 10 random configurations" `Slow test_fuzz_cgm;
          Alcotest.test_case "determinism" `Quick test_fuzz_deterministic;
          q prop_lossy_run_matches_reliable;
        ] );
    ]
