(* The benchmark's metric catalogue. BENCHMARK.json at the repository root
   repeats the name, unit, direction and bound of every metric in
   [end_to_end] and [per_layer]; the unit tests keep the two in step. *)

type better = Higher | Lower

let better_to_string = function Higher -> "higher" | Lower -> "lower"

type end_to_end = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;
      (* share of the baseline median the metric may worsen by before it
         counts as a regression *)
  floor : float;  (* absolute worsening, in [unit_], that is always tolerated *)
  exact : bool;
      (* simulated-time metrics: deterministic per seed, so [--against]
         compares them exactly; [bound] only covers the spread between
         seeds *)
}

let end_to_end =
  [
    {
      name = "wall_tps";
      unit_ = "txn/s";
      better = Higher;
      bound = 0.25;
      floor = 0.0;
      exact = false;
    };
    {
      name = "verify_s";
      unit_ = "s";
      better = Lower;
      bound = 0.25;
      floor = 0.0;
      exact = false;
    };
    {
      name = "setup_s";
      unit_ = "s";
      better = Lower;
      bound = 0.25;
      floor = 0.05;
      exact = false;
    };
    {
      name = "peak_rss_mb";
      unit_ = "MB";
      better = Lower;
      bound = 0.25;
      floor = 0.0;
      exact = false;
    };
    {
      name = "sim_tps";
      unit_ = "txn/s";
      better = Higher;
      bound = 0.25;
      floor = 0.0;
      exact = true;
    };
    {
      name = "sim_p50_ms";
      unit_ = "ms";
      better = Lower;
      bound = 0.25;
      floor = 0.0;
      exact = true;
    };
    {
      name = "sim_mean_ms";
      unit_ = "ms";
      better = Lower;
      bound = 0.25;
      floor = 0.0;
      exact = true;
    };
  ]

(* Printed and compared by [--against] (exactly), but not BENCHMARK.json
   metrics: the p99 spreads by more than 10% between seeds on faults-4 and
   verify-2k, wider than a gate across seeds can bound; the failure ratio
   is 0 on a clean run, and tools read it as [failed]/[attempted]. *)
let sim_p99_ms =
  {
    name = "sim_p99_ms";
    unit_ = "ms";
    better = Lower;
    bound = 0.0;
    floor = 0.0;
    exact = true;
  }

let fail_ratio =
  {
    name = "fail_ratio";
    unit_ = "ratio";
    better = Lower;
    bound = 0.0;
    floor = 0.0;
    exact = true;
  }

let reported = end_to_end @ [ sim_p99_ms; fail_ratio ]
let find_end_to_end name = List.find (fun (m : end_to_end) -> m.name = name) reported

(* Per-layer metrics come from the traced rep and have no bound. Each group
   names the end-to-end metric and workload it should move. *)
type layer = { layer : string; moves : string; metrics : (string * string * better) list }

let per_layer =
  [
    {
      layer = "sim";
      moves = "wall_tps on every execution workload (parallel_speedup: wide-64 only)";
      metrics =
        [
          ("sim.events_per_commit", "count", Lower);
          ("sim.ns_per_event", "ns", Lower);
          ("sim.cancelled_ratio", "ratio", Lower);
          ("sim.max_pending", "count", Lower);
          ("sim.parallel_speedup", "x", Higher);
        ];
    };
    {
      layer = "net";
      moves = "wall_tps everywhere; sim_p99_ms on faults-4";
      metrics =
        [
          ("net.msgs_per_commit", "count", Lower);
          ("net.drop_ratio", "ratio", Lower);
          ("net.overtakes", "count", Lower);
          ("net.delay_p99_ms", "ms", Lower);
        ];
    };
    {
      layer = "agent";
      moves = "sim_p99_ms and failures on faults-4; sim_p50_ms on gc-open-4";
      metrics =
        [
          ("agent.prepares_per_commit", "count", Lower);
          ("agent.refusal_ratio", "ratio", Lower);
          ("agent.resubmissions", "count", Lower);
          ("agent.commit_retries_per_commit", "count", Lower);
          ("agent.commit_delay_p99_ms", "ms", Lower);
          ("agent.in_doubt_p99_ms", "ms", Lower);
          ("agent.inquiries", "count", Lower);
        ];
    };
    {
      layer = "coord";
      moves = "sim_p50_ms on faults-4 and gc-open-4";
      metrics =
        [
          ("coord.latency_p99_ms", "ms", Lower);
          ("coord.retransmissions", "count", Lower);
          ("coord.presumed_aborts", "count", Lower);
          ("log.forces_per_commit", "count", Lower);
          ("acceptor.forces_per_commit", "count", Lower);
          ("acceptor.recovery_ballots", "count", Lower);
        ];
    };
    {
      layer = "group_commit";
      moves = "sim_p50_ms and sim_tps on gc-open-4 (zero elsewhere)";
      metrics =
        [ ("group_commit.batch_fill", "count", Higher); ("group_commit.flushes_per_commit", "count", Lower) ];
    };
    {
      layer = "ltm";
      moves = "sim_p99_ms and failures on the Zipf workloads; near zero on wide-64";
      metrics =
        [
          ("ltm.abort_ratio", "ratio", Lower);
          ("ltm.unilateral_aborts", "count", Lower);
          ("ltm.lock_timeouts", "count", Lower);
          ("ltm.deadlock_victims", "count", Lower);
          ("ltm.dlu_denials", "count", Lower);
          ("ltm.lock_wait_p99_ms", "ms", Lower);
        ];
    };
    {
      layer = "placement";
      moves = "sim_p99_ms on churn-16 (zero elsewhere)";
      metrics = [ ("placement.wrong_epoch_per_commit", "count", Lower) ];
    };
    {
      layer = "workload";
      moves = "sim_tps and failures";
      metrics =
        [
          ("workload.retry_ratio", "ratio", Lower);
          ("workload.useful_ratio", "ratio", Higher);
          ("workload.local_abort_ratio", "ratio", Lower);
        ];
    };
    {
      layer = "history";
      moves = "verify_s (all eight checkers and scaling_exp on verify-2k)";
      metrics =
        [
          ("history.extended_s", "s", Lower);
          ("history.rigorous_s", "s", Lower);
          ("history.sg_s", "s", Lower);
          ("history.cg_s", "s", Lower);
          ("history.distortions_s", "s", Lower);
          ("history.view_s", "s", Lower);
          ("history.quasi_s", "s", Lower);
          ("history.values_s", "s", Lower);
          ("history.scaling_exp", "exponent", Lower);
          ("history.check_s", "s", Lower);
        ];
    };
    {
      layer = "obs";
      moves = "must not move wall_tps on any workload";
      metrics = [ ("obs.overhead", "x", Lower) ];
    };
    {
      layer = "rt";
      moves = "wall_tps, most on gc-open-4";
      metrics =
        [
          ("rt.minor_words_per_commit", "words", Lower);
          ("rt.promoted_ratio", "ratio", Lower);
          ("rt.major_collections", "count", Lower);
          ("rt.cold_penalty", "x", Lower);
        ];
    };
  ]

let per_layer_metrics = List.concat_map (fun l -> l.metrics) per_layer
