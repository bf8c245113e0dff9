(* Tests for hermes.workload: Zipf sampling, program generation, stats and
   the end-to-end driver. *)

open Hermes_kernel
open Hermes_workload
module Config = Hermes_core.Config
module Program = Hermes_core.Program
module Failure = Hermes_ltm.Failure
module Cgm = Hermes_baselines.Cgm
module Committed = Hermes_history.Committed
module Anomaly = Hermes_history.Anomaly

(* ------------------------------------------------------------------ *)
(* Zipf                                                                *)
(* ------------------------------------------------------------------ *)

let test_zipf_bounds () =
  let z = Zipf.create ~n:10 ~theta:0.9 in
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let k = Zipf.sample z rng in
    if k < 0 || k >= 10 then Alcotest.failf "out of bounds: %d" k
  done

let test_zipf_skew () =
  let z = Zipf.create ~n:10 ~theta:1.2 in
  let rng = Rng.create ~seed:2 in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let k = Zipf.sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "key 0 hottest" true (counts.(0) > counts.(5));
  Alcotest.(check bool) "markedly so" true (counts.(0) > 3 * counts.(9))

let test_zipf_uniform () =
  let z = Zipf.create ~n:4 ~theta:0.0 in
  let rng = Rng.create ~seed:3 in
  let counts = Array.make 4 0 in
  for _ = 1 to 8_000 do
    let k = Zipf.sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "roughly uniform" true (c > 1_500 && c < 2_500))
    counts

let prop_zipf_in_range =
  QCheck.Test.make ~name:"zipf stays in range" ~count:200
    QCheck.(triple (int_range 1 50) (int_bound 1000) (int_bound 20))
    (fun (n, seed, theta10) ->
      let z = Zipf.create ~n ~theta:(float_of_int theta10 /. 10.0) in
      let rng = Rng.create ~seed in
      let k = Zipf.sample z rng in
      0 <= k && k < n)

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let spec =
  Spec.make ~n_sites:4 ~mix:{ Spec.sites_per_txn = 2; ops_per_site = 3; write_ratio = 0.5 } ()

let test_generator_distinct_sites () =
  let gen = Generator.create ~spec ~rng:(Rng.create ~seed:5) in
  for _ = 1 to 50 do
    let p = Generator.global_program gen in
    let sites = Program.sites p in
    Alcotest.(check int) "two sites" 2 (List.length sites);
    Alcotest.(check int) "distinct" 2 (List.length (List.sort_uniq Site.compare sites))
  done

(* The scratch-array participant draws pick exactly what the list-based
   draws of [Generator_reference] pick from the same seed, draw after
   draw, and leave the RNG stream in the same place: the next number
   drawn from each stream agrees too. *)
let prop_participant_draws_match_reference =
  QCheck.Test.make ~name:"participant draws = list-based draws" ~count:300
    QCheck.(quad (int_range 1 80) (int_range 0 79) (int_range 1 82) (pair (int_range 1 80) small_nat))
    (fun (n_sites, root, sites_per_txn, (n_shards, seed)) ->
      let site = Site.of_int (root mod n_sites) in
      let spec =
        Spec.make ~n_sites ~n_shards
          ~mix:{ Spec.sites_per_txn; ops_per_site = 1; write_ratio = 0.5 }
          ()
      in
      let rng = Rng.create ~seed and ref_rng = Rng.create ~seed in
      let gen = Generator.create ~spec ~rng in
      let same = ref true in
      for _ = 1 to 8 do
        same :=
          !same
          && Generator.distinct_sites_rooted gen ~site
             = Generator_reference.distinct_sites_rooted ref_rng ~n_sites ~sites_per_txn ~site
          && Generator.distinct_shards gen
             = Generator_reference.distinct_shards ref_rng ~n_shards ~sites_per_txn
      done;
      !same && Rng.int rng ~bound:1_000_000 = Rng.int ref_rng ~bound:1_000_000)

let test_generator_no_upgrades () =
  (* Within one site's command list, no key is both read (by a select or a
     range scan) and updated — the upgrade-deadlock trap. *)
  let gen = Generator.create ~spec ~rng:(Rng.create ~seed:6) in
  for _ = 1 to 200 do
    let p = Generator.global_program gen in
    List.iter
      (fun site ->
        let cmds = Program.commands_at p site in
        let read_keys =
          List.concat_map
            (function
              | Command.Select { table; keys } -> List.map (fun k -> (table, k)) keys
              | Command.Select_range { table; lo; hi } -> List.init (hi - lo + 1) (fun i -> (table, lo + i))
              | _ -> [])
            cmds
        in
        let write_keys =
          List.filter_map
            (function Command.Update { table; key; _ } -> Some (table, key) | _ -> None)
            cmds
        in
        Alcotest.(check int) "distinct write targets"
          (List.length write_keys)
          (List.length (List.sort_uniq compare write_keys));
        List.iter
          (fun wk ->
            Alcotest.(check bool)
              (Fmt.str "written key %s/%d never read first" (fst wk) (snd wk))
              false
              (List.exists (( = ) wk) read_keys))
          write_keys)
      (Program.sites p)
  done

let test_generator_partitioned_locals () =
  let gen = Generator.create ~spec:{ spec with Spec.local_write_ratio = 1.0 } ~rng:(Rng.create ~seed:7) in
  for _ = 1 to 50 do
    List.iter
      (function
        | Command.Update { table; _ } ->
            Alcotest.(check string) "writes confined" Generator.local_partition_table table
        | Command.Select _ -> ()
        | c -> Alcotest.failf "unexpected %a" Command.pp c)
      (Generator.local_commands ~partitioned:true gen)
  done

(* ------------------------------------------------------------------ *)
(* Spec: the builder API (the flat-field shim is gone)                  *)
(* ------------------------------------------------------------------ *)

let test_spec_builder () =
  let s =
    Spec.make
      ~arrival:(Spec.Closed { mpl = 7; think_time_mean = 123 })
      ~key_dist:(Spec.Zipf { theta = 0.8 })
      ~mix:{ Spec.sites_per_txn = 3; ops_per_site = 4; write_ratio = 0.25 }
      ()
  in
  (match s.Spec.arrival with
  | Spec.Closed { mpl; think_time_mean } ->
      Alcotest.(check int) "mpl kept" 7 mpl;
      Alcotest.(check int) "think time kept" 123 think_time_mean
  | Spec.Open _ -> Alcotest.fail "expected Closed");
  Alcotest.(check int) "think_time view" 123 (Spec.think_time s);
  (match s.Spec.key_dist with
  | Spec.Zipf { theta } -> Alcotest.(check (float 0.0)) "theta kept" 0.8 theta
  | _ -> Alcotest.fail "expected Zipf");
  Alcotest.(check int) "mix sites kept" 3 s.Spec.mix.Spec.sites_per_txn;
  Alcotest.(check int) "mix ops kept" 4 s.Spec.mix.Spec.ops_per_site;
  Alcotest.(check (float 0.0)) "mix write ratio kept" 0.25 s.Spec.mix.Spec.write_ratio

let test_spec_open_loop () =
  let o =
    Spec.make ~arrival:(Spec.Open { rate = 500.0; max_in_flight = 64 }) ~key_dist:Spec.Uniform ()
  in
  (match o.Spec.arrival with
  | Spec.Open { rate; max_in_flight } ->
      Alcotest.(check (float 0.0)) "rate kept" 500.0 rate;
      Alcotest.(check int) "cap kept" 64 max_in_flight
  | Spec.Closed _ -> Alcotest.fail "expected Open");
  (* open loops pace retries/locals with the default think time *)
  Alcotest.(check int) "default think time" (Spec.think_time Spec.default) (Spec.think_time o)

let test_spec_shards_default () =
  (* [n_shards] defaults to one shard per site — the static identity
     placement every pre-placement run used implicitly. *)
  let s = Spec.make ~n_sites:5 () in
  Alcotest.(check int) "default shards = sites" 5 (Spec.shards s);
  let sharded = Spec.make ~n_sites:4 ~n_shards:16 () in
  Alcotest.(check int) "explicit shard count kept" 16 (Spec.shards sharded)

(* ------------------------------------------------------------------ *)
(* Key distributions and the local long tail                            *)
(* ------------------------------------------------------------------ *)

let test_generator_uniform_keys_in_range () =
  let spec = Spec.make ~keys_per_site:16 ~key_dist:Spec.Uniform () in
  let gen = Generator.create ~spec ~rng:(Rng.create ~seed:11) in
  for _ = 1 to 100 do
    let p = Generator.global_program gen in
    List.iter
      (fun site ->
        List.iter
          (function
            | Command.Update { key; _ } ->
                Alcotest.(check bool) "in range" true (0 <= key && key < 16)
            | _ -> ())
          (Program.commands_at p site))
      (Program.sites p)
  done

let test_generator_long_tail_locals () =
  (* With a certain long tail every local txn runs 8x the ops; with the
     feature off the legacy length is untouched. *)
  let tailed = Spec.make ~local_long_tail:1.0 () in
  let gen = Generator.create ~spec:tailed ~rng:(Rng.create ~seed:12) in
  Alcotest.(check int) "8x ops" 16 (List.length (Generator.local_commands gen));
  let flat = Spec.make ~local_long_tail:0.0 () in
  let gen = Generator.create ~spec:flat ~rng:(Rng.create ~seed:12) in
  Alcotest.(check int) "legacy length" 2 (List.length (Generator.local_commands gen))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_latency_summary () =
  let s = Stats.create () in
  List.iter
    (fun l -> Stats.record_latency s ~started:Time.zero ~finished:(Time.of_int l))
    [ 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ];
  let sum = Stats.latency_summary s in
  Alcotest.(check bool) "mean" true (abs_float (sum.Stats.mean -. 55.0) < 0.001);
  (* The histogram reports bucket upper bounds: the p50 sample (60) lands
     in the [32, 63] bucket. The extrema stay exact. *)
  Alcotest.(check int) "p50" 63 sum.Stats.p50;
  Alcotest.(check int) "max" 100 sum.Stats.max

let test_abort_rate () =
  let s = Stats.create () in
  for _ = 1 to 10 do
    Stats.note_attempt s
  done;
  for _ = 1 to 8 do
    Stats.note_committed s
  done;
  Alcotest.(check bool) "rate" true (abs_float (Stats.abort_rate s -. 0.2) < 0.001)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let test_driver_completes_quota () =
  let r =
    Driver.run
      { Driver.default_setup with Driver.spec = { Spec.default with Spec.n_global = 30 }; seed = 9 }
  in
  Alcotest.(check int) "quota done" 30 (Stats.committed r.Driver.stats + Stats.aborted_final r.Driver.stats);
  Alcotest.(check int) "nothing stuck" 0 r.Driver.stuck;
  Alcotest.(check bool) "failure-free: all commit" true (Stats.committed r.Driver.stats = 30)

let test_driver_deterministic () =
  let setup = { Driver.default_setup with Driver.failure = Failure.prepared_rate 0.2; seed = 12 } in
  let r1 = Driver.run setup and r2 = Driver.run setup in
  Alcotest.(check int) "same commits" (Stats.committed r1.Driver.stats) (Stats.committed r2.Driver.stats);
  Alcotest.(check int) "same events" r1.Driver.events r2.Driver.events;
  Alcotest.(check int) "same sim time" r1.Driver.sim_ticks r2.Driver.sim_ticks

let test_driver_full_certifier_clean_under_failures () =
  let r =
    Driver.run
      {
        Driver.default_setup with
        Driver.failure = Failure.prepared_rate 0.3;
        seed = 13;
        spec = Spec.make ~n_global:60 ~key_dist:(Spec.Zipf { theta = 0.9 }) ~keys_per_site:10 ();
      }
  in
  let c = Committed.extended r.Driver.history in
  Alcotest.(check bool) "resubmissions happened" true (r.Driver.totals.Hermes_core.Dtm.resubmissions > 0);
  Alcotest.(check (list string)) "no distortions" []
    (List.map (Fmt.str "%a" Anomaly.pp_global) (Anomaly.global_view_distortions c));
  Alcotest.(check bool) "CG acyclic" true (Anomaly.commit_order_cycle c = None)

let test_driver_cgm_protocol () =
  let r =
    Driver.run
      {
        Driver.default_setup with
        Driver.protocol = Driver.Cgm_baseline Cgm.Site_level;
        seed = 14;
        spec = { Spec.default with Spec.n_global = 30 };
      }
  in
  Alcotest.(check int) "all commit" 30 (Stats.committed r.Driver.stats);
  Alcotest.(check bool) "cgm stats present" true (r.Driver.cgm <> None)

let test_driver_local_cap () =
  let r =
    Driver.run
      {
        Driver.default_setup with
        Driver.seed = 15;
        spec = { Spec.default with Spec.n_global = 20; local_mpl_per_site = 4; local_txn_cap = 25 };
      }
  in
  let locals = Stats.local_committed r.Driver.stats + Stats.local_aborted r.Driver.stats in
  Alcotest.(check bool) "cap respected" true (locals <= 25)

let test_driver_open_loop_completes () =
  let setup =
    {
      Driver.default_setup with
      Driver.seed = 17;
      spec = Spec.make ~n_global:40 ~arrival:(Spec.Open { rate = 400.0; max_in_flight = 8 }) ();
    }
  in
  let r = Driver.run setup in
  Alcotest.(check int) "quota done" 40
    (Stats.committed r.Driver.stats + Stats.aborted_final r.Driver.stats);
  Alcotest.(check int) "nothing stuck" 0 r.Driver.stuck;
  (* Open-loop runs are as deterministic as closed-loop ones: the arrival
     process has its own split RNG stream. *)
  let r2 = Driver.run setup in
  Alcotest.(check int) "deterministic events" r.Driver.events r2.Driver.events;
  Alcotest.(check int) "deterministic ticks" r.Driver.sim_ticks r2.Driver.sim_ticks;
  Alcotest.(check int) "deterministic commits" (Stats.committed r.Driver.stats)
    (Stats.committed r2.Driver.stats)

let test_gc_acceptance_forces_per_commit () =
  (* The headline number: group commit at 5k transactions under dense
     open-loop load pays fewer than 0.5 synchronous log forces per
     committed global (vs ~7 with batching off: 2 agent forces per
     subtransaction and 3 coordinator forces per transaction). *)
  let certifier = { Config.full with Config.group_commit_window = 25_000; max_batch = 32 } in
  let r =
    Driver.run
      {
        Driver.default_setup with
        Driver.protocol = Driver.Two_pca certifier;
        seed = 33;
        spec =
          Spec.make ~n_sites:2 ~keys_per_site:1_000 ~n_global:5_000
            ~arrival:(Spec.Open { rate = 1_000.0; max_in_flight = 48 })
            ~key_dist:Spec.Uniform ~local_mpl_per_site:0 ();
      }
  in
  let committed = Stats.committed r.Driver.stats in
  let t = r.Driver.totals in
  Alcotest.(check int) "nothing stuck" 0 r.Driver.stuck;
  Alcotest.(check bool) "most of the quota commits" true (committed > 4_000);
  let fpc =
    float_of_int (t.Hermes_core.Dtm.agent_log_forces + t.Hermes_core.Dtm.coord_log_forces)
    /. float_of_int committed
  in
  Alcotest.(check bool)
    (Fmt.str "forces per committed txn %.3f < 0.5" fpc)
    true (fpc < 0.5)

let test_protocol_names () =
  Alcotest.(check string) "2cm" "2CM" (Driver.protocol_name (Driver.Two_pca Config.full));
  Alcotest.(check string) "naive" "naive" (Driver.protocol_name (Driver.Two_pca Config.naive));
  Alcotest.(check string) "ticket" "ticket" (Driver.protocol_name (Driver.Two_pca Config.ticket));
  Alcotest.(check string) "cgm" "CGM-site" (Driver.protocol_name (Driver.Cgm_baseline Cgm.Site_level))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "workload"
    [
      ( "zipf",
        [
          Alcotest.test_case "bounds" `Quick test_zipf_bounds;
          Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "uniform" `Quick test_zipf_uniform;
          q prop_zipf_in_range;
        ] );
      ( "spec",
        [
          Alcotest.test_case "builder" `Quick test_spec_builder;
          Alcotest.test_case "open loop" `Quick test_spec_open_loop;
          Alcotest.test_case "shards default" `Quick test_spec_shards_default;
        ] );
      ( "generator",
        [
          Alcotest.test_case "distinct sites" `Quick test_generator_distinct_sites;
          q prop_participant_draws_match_reference;
          Alcotest.test_case "no upgrade patterns" `Quick test_generator_no_upgrades;
          Alcotest.test_case "partitioned locals" `Quick test_generator_partitioned_locals;
          Alcotest.test_case "uniform keys in range" `Quick test_generator_uniform_keys_in_range;
          Alcotest.test_case "long-tail locals" `Quick test_generator_long_tail_locals;
        ] );
      ( "stats",
        [
          Alcotest.test_case "latency summary" `Quick test_latency_summary;
          Alcotest.test_case "abort rate" `Quick test_abort_rate;
        ] );
      ( "driver",
        [
          Alcotest.test_case "completes quota" `Quick test_driver_completes_quota;
          Alcotest.test_case "deterministic" `Quick test_driver_deterministic;
          Alcotest.test_case "clean under failures" `Quick test_driver_full_certifier_clean_under_failures;
          Alcotest.test_case "CGM protocol" `Quick test_driver_cgm_protocol;
          Alcotest.test_case "local cap" `Quick test_driver_local_cap;
          Alcotest.test_case "open loop completes and is deterministic" `Quick
            test_driver_open_loop_completes;
          Alcotest.test_case "group commit: <0.5 forces per commit at 5k" `Slow
            test_gc_acceptance_forces_per_commit;
          Alcotest.test_case "protocol names" `Quick test_protocol_names;
        ] );
    ]
