(* The five reference workloads. Each stresses a layer the others bypass,
   so an optimisation of that layer has one workload where it should move
   the end-to-end numbers and others where it should not. Sizes keep one
   rep (run and check) near a second of wall time on a 2-core host, so a
   run's median rests on ten or more reps; [time_limit] is far past every
   run's simulated length so no run is cut short. *)

module Driver = Hermes_workload.Driver
module Spec = Hermes_workload.Spec
module Config = Hermes_core.Config
module Failure = Hermes_ltm.Failure
module Network = Hermes_net.Network

type kind =
  | Execute of { run : Driver.setup -> Driver.result }  (* the measured rep is one [run] of the setup *)
  | Verify of { half : seed:int -> Driver.setup }
      (* set-up generates the history; the measured rep is Report.analyze
         on it, and [half] generates the history at half size for the
         scaling exponent *)

type t = {
  name : string;
  why : string;
  kind : kind;
  setup : seed:int -> Driver.setup;
  min_sim_tps : float;  (* an open loop must keep up with its offered rate; 0 = no floor *)
}

let time_limit = 1_000_000_000

(* The paper's fault (unilateral aborts of prepared subtransactions, then
   resubmission) on top of Paxos Commit, lossy links and rotating site
   crashes that take coordinators down. [max_retries] is high enough that
   no transaction gives up, so every failure the benchmark counts is a
   correctness failure. *)
let faults ~n_global ~seed =
  let horizon = n_global * 3_700 in
  {
    Driver.default_setup with
    Driver.seed;
    time_limit;
    spec =
      Spec.make ~n_sites:4 ~n_global
        ~arrival:(Spec.Closed { mpl = 8; think_time_mean = 2_000 })
        ~key_dist:(Spec.Zipf { theta = 0.6 })
        ~mix:{ Spec.sites_per_txn = 2; ops_per_site = 2; write_ratio = 0.5 }
        ~local_txn_cap:(n_global / 2) ~max_retries:100 ();
    protocol =
      Driver.Two_pca
        { Config.full with Config.commit_proto = Config.Paxos { f = 1 }; decision_inquiry_interval = 10_000 };
    failure = Failure.prepared_rate 0.2;
    net = { Network.default_config with Network.faults = { Network.no_faults with Network.drop = 0.01 } };
    crash_coordinators = true;
    reboot_delay = 20_000;
    crash_schedule = List.init (horizon / 500_000) (fun k -> ((k + 1) * 500_000, k mod 4));
  }

(* Group commit under an open loop. The window is 5 ms: at 10 ms and at
   E15's 25 ms this configuration records global view distortions on most
   seeds (see README.md), and a benchmark workload must run clean. *)
let group_commit ~seed =
  let n_global = 12_000 in
  {
    Driver.default_setup with
    Driver.seed;
    time_limit;
    spec =
      Spec.make ~n_sites:4 ~n_global ~keys_per_site:200
        ~arrival:(Spec.Open { rate = 150.0; max_in_flight = 48 })
        ~key_dist:(Spec.Zipf { theta = 0.6 })
        ~local_long_tail:0.05 ~local_txn_cap:(n_global / 2) ();
    protocol = Driver.Two_pca { Config.full with Config.group_commit_window = 5_000; max_batch = 32 };
  }

(* The measured reps run the windowed engine on one domain (the schedule
   is the same at any domain count): on a shared 2-core host, 2-domain
   wall times spread by 10% between runs even after calibration. The
   traced phase times one rep at [domains = 2] for sim.parallel_speedup. *)
let wide ~seed =
  let n_global = 6_400 in
  {
    Driver.default_setup with
    Driver.seed;
    time_limit;
    domains = 2;
    spec =
      Spec.make ~n_sites:64 ~n_global ~keys_per_site:200
        ~arrival:(Spec.Closed { mpl = 128; think_time_mean = 2_000 })
        ~key_dist:Spec.Uniform
        ~mix:{ Spec.sites_per_txn = 2; ops_per_site = 2; write_ratio = 0.1 }
        ~local_txn_cap:(n_global / 2) ();
  }

(* The moves finish before the leave: a move scheduled while a site has
   left raises in Driver (see README.md). Every event falls inside the
   run's simulated length (about 3.6 s), so sim_ticks is the workload's
   own. *)
let churn ~seed =
  let n_global = 10_000 in
  {
    Driver.default_setup with
    Driver.seed;
    time_limit;
    spec =
      Spec.make ~n_sites:16 ~n_global
        ~arrival:(Spec.Closed { mpl = 32; think_time_mean = 2_000 })
        ~local_txn_cap:(n_global / 2) ();
    moves = 32;
    reconfigure_at = 50_000;
    leave_schedule = [ (2_000_000, 15) ];
    join_schedule = [ (3_000_000, 15) ];
  }

let all =
  [
    {
      name = "faults-4";
      why =
        "unilateral aborts with resubmission, Paxos Commit, 1% drops and coordinator crashes: \
         certifier refusals, Agent-log recovery, inquiries";
      kind = Execute { run = Driver.run };
      setup = (fun ~seed -> faults ~n_global:4_000 ~seed);
      min_sim_tps = 0.0;
    };
    {
      name = "gc-open-4";
      why =
        "open-loop Poisson arrivals at 150 txn/s with group commit: the only workload on the \
         batching and staged-record paths";
      kind = Execute { run = Driver.run };
      setup = group_commit;
      min_sim_tps = 0.95 *. 150.0;
    };
    {
      name = "wide-64";
      why =
        "64 sites on the windowed engine, uniform read-mostly keys: windows, mailboxes and per-shard \
         networks do the work, locks barely contend";
      kind = Execute { run = Driver.run_windowed ~domains:1 };
      setup = wide;
      min_sim_tps = 0.0;
    };
    {
      name = "churn-16";
      why = "32 shard moves plus a leave and a join: epoch installs, handovers, WRONG-EPOCH retries";
      kind = Execute { run = Driver.run };
      setup = churn;
      min_sim_tps = 0.0;
    };
    {
      name = "verify-2k";
      why = "Report.analyze on a 2000-global fault history: offline verification, no simulation";
      kind = Verify { half = (fun ~seed -> faults ~n_global:1_000 ~seed) };
      setup = (fun ~seed -> faults ~n_global:2_000 ~seed);
      min_sim_tps = 0.0;
    };
  ]
