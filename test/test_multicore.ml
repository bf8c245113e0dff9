(* Tests for the multicore execution engine: the lock-free mailbox, the
   conservative windowed runner, and the end-to-end equivalence of the
   per-site driver across domain counts.

   The determinism contract under test: one execution shard per site
   produces the SAME result at any domain count (1, 2, 4, ...) — same
   merged history, same statistics, same outcome sets — because windows
   are a function of virtual time only and cross-shard drains are
   deterministically ordered. It is a *different* schedule from the
   one-shard (sequential) run, whose byte-identity is pinned by the
   golden digests in test_protocol.ml (and re-asserted here for
   [domains = 1] dispatch); digests here pin the per-site schedules. *)

open Hermes_kernel
module Engine = Hermes_sim.Engine
module Mailbox = Hermes_sim.Mailbox
module Parallel = Hermes_sim.Parallel
module Driver = Hermes_workload.Driver
module Spec = Hermes_workload.Spec
module Stats = Hermes_workload.Stats
module Config = Hermes_core.Config
module Dtm = Hermes_core.Dtm
module Network = Hermes_net.Network
module Cgm = Hermes_baselines.Cgm
module History = Hermes_history.History
module Report = Hermes_history.Report
module Obs = Hermes_obs.Obs
module Tracer = Hermes_obs.Tracer
module Registry = Hermes_obs.Registry

(* ------------------------------------------------------------------ *)
(* Mailbox                                                             *)
(* ------------------------------------------------------------------ *)

let test_mailbox_drain_order () =
  let mb = Mailbox.create () in
  (* Push in scrambled order; drain must sort by (at, src_shard, src_seq). *)
  Mailbox.push mb ~at:30 ~src_shard:1 ~src_seq:0 "d";
  Mailbox.push mb ~at:10 ~src_shard:2 ~src_seq:1 "c";
  Mailbox.push mb ~at:10 ~src_shard:0 ~src_seq:5 "b";
  Mailbox.push mb ~at:10 ~src_shard:0 ~src_seq:2 "a";
  Alcotest.(check int) "length" 4 (Mailbox.length mb);
  let drained = List.map (fun e -> e.Mailbox.payload) (Mailbox.drain mb) in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c"; "d" ] drained;
  Alcotest.(check bool) "empty after drain" true (Mailbox.is_empty mb)

let test_mailbox_concurrent_push () =
  let mb = Mailbox.create () in
  let per_domain = 1000 in
  let producers =
    List.init 4 (fun shard ->
        Domain.spawn (fun () ->
            for s = 0 to per_domain - 1 do
              Mailbox.push mb ~at:1 ~src_shard:shard ~src_seq:s (shard, s)
            done))
  in
  List.iter Domain.join producers;
  let drained = Mailbox.drain mb in
  Alcotest.(check int) "nothing lost" (4 * per_domain) (List.length drained);
  (* Deterministic order regardless of the race: shard-major, seq-minor. *)
  let expected = List.concat (List.init 4 (fun sh -> List.init per_domain (fun s -> (sh, s)))) in
  Alcotest.(check bool)
    "deterministic order" true
    (List.map (fun e -> e.Mailbox.payload) drained = expected)

(* ------------------------------------------------------------------ *)
(* Engine.next_at                                                      *)
(* ------------------------------------------------------------------ *)

let test_engine_next_at () =
  let e = Engine.create () in
  Alcotest.(check (option int)) "empty" None (Option.map Time.to_int (Engine.next_at e));
  Engine.schedule_unit e ~delay:50 (fun () -> ());
  let t = Engine.schedule e ~delay:10 (fun () -> ()) in
  Alcotest.(check (option int)) "earliest" (Some 10) (Option.map Time.to_int (Engine.next_at e));
  (* Cancelled timers still occupy the queue — next_at is a lower bound on
     the next *fired* event, which is all the window computation needs. *)
  Engine.cancel t;
  Alcotest.(check (option int)) "cancelled still pending" (Some 10)
    (Option.map Time.to_int (Engine.next_at e));
  Engine.run e;
  Alcotest.(check (option int)) "drained" None (Option.map Time.to_int (Engine.next_at e))

(* ------------------------------------------------------------------ *)
(* The conservative windowed runner on toy shards                      *)
(* ------------------------------------------------------------------ *)

(* A ping-pong pair: each shard, on receiving k, sends k-1 back with
   latency [lookahead]. Exercises cross-window message flow. *)
let run_pingpong ~domains =
  let lookahead = 100 in
  let n = 2 in
  let engines = Array.init n (fun _ -> Engine.create ()) in
  let mailboxes = Array.init n (fun _ -> Mailbox.create ()) in
  let seqs = Array.make n 0 in
  let log = Array.make n [] in
  let send ~from ~dst k =
    let at = Time.to_int (Time.add (Engine.now engines.(from)) lookahead) in
    let s = seqs.(from) in
    seqs.(from) <- s + 1;
    Mailbox.push mailboxes.(dst) ~at ~src_shard:from ~src_seq:s k
  in
  let receive shard k =
    log.(shard) <- (Time.to_int (Engine.now engines.(shard)), k) :: log.(shard);
    if k > 0 then send ~from:shard ~dst:(1 - shard) (k - 1)
  in
  let shards =
    Array.init n (fun i ->
        {
          Parallel.engine = engines.(i);
          drain =
            (fun () ->
              List.iter
                (fun e ->
                  let now = Engine.now engines.(i) in
                  Engine.schedule_unit engines.(i)
                    ~delay:(Time.to_int (Time.of_int e.Mailbox.at) - Time.to_int now)
                    (fun () -> receive i e.Mailbox.payload))
                (Mailbox.drain mailboxes.(i)));
        })
  in
  Engine.schedule_unit engines.(0) ~delay:5 (fun () -> receive 0 10);
  let stats = Parallel.run ~domains ~lookahead ~until:(Time.of_int 1_000_000) shards in
  (stats, Array.map List.rev log)

let test_parallel_pingpong () =
  let stats, logs = run_pingpong ~domains:2 in
  (* 11 receives total (k = 10 .. 0), alternating shards, 100 ticks apart. *)
  Alcotest.(check int) "shard 0 receives" 6 (List.length logs.(0));
  Alcotest.(check int) "shard 1 receives" 5 (List.length logs.(1));
  Alcotest.(check (list (pair int int)))
    "shard 0 log" [ (5, 10); (205, 8); (405, 6); (605, 4); (805, 2); (1005, 0) ]
    logs.(0);
  Alcotest.(check bool) "ran in windows" true (stats.Parallel.windows >= 11)

let test_parallel_domain_invariance () =
  let _, l1 = run_pingpong ~domains:1 in
  let _, l2 = run_pingpong ~domains:2 in
  Alcotest.(check bool) "domains 1 = domains 2" true (l1 = l2)

(* One shard has no boundary to cross: it runs straight to the cap in a
   single window, and needs no lookahead. *)
let test_parallel_one_shard () =
  let e = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun d -> Engine.schedule_unit e ~delay:d (fun () -> fired := d :: !fired))
    [ 30; 10; 20 ];
  let stats =
    Parallel.run ~domains:4 ~lookahead:0 ~until:(Time.of_int 25)
      [| { Parallel.engine = e; drain = (fun () -> ()) } |]
  in
  Alcotest.(check (list int)) "ran to the cap" [ 10; 20 ] (List.rev !fired);
  Alcotest.(check int) "one window" 1 stats.Parallel.windows;
  Alcotest.(check int) "one domain" 1 stats.Parallel.domains

let test_parallel_worker_exception () =
  let engines = [| Engine.create (); Engine.create () |] in
  Engine.schedule_unit engines.(1) ~delay:10 (fun () -> failwith "boom");
  let shards =
    Array.map
      (fun e ->
        { Parallel.engine = e; drain = (fun () -> ()) })
      engines
  in
  Alcotest.check_raises "re-raised on caller" (Failure "boom") (fun () ->
      ignore (Parallel.run ~domains:2 ~lookahead:100 ~until:(Time.of_int 1000) shards))

(* ------------------------------------------------------------------ *)
(* End-to-end: the sharded driver across domain counts                 *)
(* ------------------------------------------------------------------ *)

let windowed_setup =
  {
    Driver.default_setup with
    Driver.spec =
      Spec.make ~n_sites:4 ~n_global:60
        ~arrival:(Spec.Closed { mpl = 6; think_time_mean = Spec.think_time Spec.default })
        ~local_txn_cap:120 ();
    seed = 42;
  }

let outcome_sets r =
  let h = r.Driver.history in
  let globals = History.global_txns h in
  let committed, aborted =
    List.partition (fun txn -> History.is_globally_committed h txn) globals
  in
  (List.map Txn.show committed, List.map Txn.show aborted)

let test_windowed_domain_invariance () =
  let r1 = Driver.run_windowed ~domains:1 windowed_setup in
  let r2 = Driver.run_windowed ~domains:2 windowed_setup in
  let r4 = Driver.run_windowed ~domains:4 windowed_setup in
  let c1, a1 = outcome_sets r1 and c2, a2 = outcome_sets r2 and c4, a4 = outcome_sets r4 in
  Alcotest.(check (list string)) "committed gids 1=2" c1 c2;
  Alcotest.(check (list string)) "committed gids 1=4" c1 c4;
  Alcotest.(check (list string)) "aborted gids 1=2" a1 a2;
  Alcotest.(check (list string)) "aborted gids 1=4" a1 a4;
  Alcotest.(check int) "committed count" (Stats.committed r1.Driver.stats)
    (Stats.committed r2.Driver.stats);
  Alcotest.(check int) "attempts" (Stats.attempts r1.Driver.stats) (Stats.attempts r2.Driver.stats);
  Alcotest.(check int) "events 1=2" r1.Driver.events r2.Driver.events;
  Alcotest.(check int) "events 1=4" r1.Driver.events r4.Driver.events;
  Alcotest.(check int) "sim_ticks" r1.Driver.sim_ticks r2.Driver.sim_ticks;
  Alcotest.(check string)
    "identical merged history" (History.show r1.Driver.history) (History.show r2.Driver.history)

let test_windowed_clean_and_complete () =
  let r = Driver.run_windowed ~domains:2 windowed_setup in
  Alcotest.(check int) "no stuck transactions" 0 r.Driver.stuck;
  Alcotest.(check int) "quota completed" 60
    (Stats.committed r.Driver.stats + Stats.aborted_final r.Driver.stats);
  Alcotest.(check bool) "history clean" true (Report.ok (Report.analyze r.Driver.history))

let test_windowed_obs_merge () =
  let obs = Obs.create () in
  let r = Driver.run_windowed ~domains:2 { windowed_setup with Driver.obs = Some obs } in
  let reg = Obs.metrics obs in
  let committed_metric = Registry.Counter.value (Registry.counter reg "workload.committed") in
  Alcotest.(check int) "absorbed workload counters" (Stats.committed r.Driver.stats)
    committed_metric;
  Alcotest.(check bool) "trace events merged" true (Tracer.length (Obs.trace obs) > 0)

let prop_windowed_equivalence =
  QCheck.Test.make ~name:"windowed run is domain-count-invariant" ~count:8
    QCheck.(pair (int_range 1 1000) (int_range 2 4))
    (fun (seed, domains) ->
      let setup =
        {
          Driver.default_setup with
          Driver.spec =
            Spec.make ~n_sites:3 ~n_global:25
              ~arrival:(Spec.Closed { mpl = 4; think_time_mean = Spec.think_time Spec.default })
              ();
          seed;
        }
      in
      let base = Driver.run_windowed ~domains:1 setup in
      let par = Driver.run_windowed ~domains setup in
      outcome_sets base = outcome_sets par
      && Stats.committed base.Driver.stats = Stats.committed par.Driver.stats
      && base.Driver.events = par.Driver.events
      && base.Driver.sim_ticks = par.Driver.sim_ticks
      && Report.ok (Report.analyze par.Driver.history))

(* Golden digests in test_protocol.ml's format: trace JSON, registry JSON
   and the run counters. *)
let run_digest run setup =
  let obs = Obs.create () in
  let r = run { setup with Driver.obs = Some obs } in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Tracer.to_json_lines (Obs.trace obs));
  Buffer.add_string buf (Registry.to_json (Obs.metrics obs));
  Buffer.add_string buf
    (Fmt.str "committed=%d events=%d ticks=%d stuck=%d" (Stats.committed r.Driver.stats)
       r.Driver.events r.Driver.sim_ticks r.Driver.stuck);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The [domains = 1] dispatch must stay on the one-shard schedule:
   re-assert one of test_protocol.ml's golden digests through it. *)
let test_domains1_golden_digest () =
  Alcotest.(check string) "legacy digest unchanged" "99cdc870e03bfb9eb99a7b7479910efd"
    (run_digest Driver.run
       {
         Driver.default_setup with
         Driver.protocol = Driver.Two_pca Config.full;
         seed = 7;
         spec =
           Spec.make ~n_global:40
             ~arrival:(Spec.Closed { mpl = 4; think_time_mean = Spec.think_time Spec.default })
             ();
         domains = 1;
       })

(* Schedule pins: the per-site windowed schedule under a closed loop, an
   open loop and a crash schedule with real reboot windows, plus the one
   sequential run whose stream order puts the reconfiguration stream
   before the arrival stream. *)
let open_arrival = Spec.Open { rate = 150.0; max_in_flight = 8 }

let test_windowed_closed_digest () =
  Alcotest.(check string) "windowed closed loop" "b04ac8162dbdce009860dbf473e965b1"
    (run_digest (Driver.run_windowed ~domains:1) windowed_setup)

let test_windowed_open_digest () =
  Alcotest.(check string) "windowed open loop" "ef75bc049dc79cf753111de1e37e8af9"
    (run_digest (Driver.run_windowed ~domains:1)
       {
         windowed_setup with
         Driver.spec = Spec.make ~n_sites:4 ~n_global:60 ~arrival:open_arrival ~local_txn_cap:120 ();
       })

let test_windowed_crash_digest () =
  Alcotest.(check string) "windowed crashes with reboot windows" "53e7614bfd31449868622cc5dd5c3a7b"
    (run_digest (Driver.run_windowed ~domains:1)
       {
         windowed_setup with
         Driver.crash_schedule = [ (30_000, 1); (90_000, 3) ];
         reboot_delay = 40_000;
       })

let test_sequential_moves_open_digest () =
  Alcotest.(check string) "sequential moves under an open loop" "d52bb9011aed1df36484f97daab7174c"
    (run_digest Driver.run
       {
         windowed_setup with
         Driver.spec = Spec.make ~n_sites:4 ~n_global:60 ~arrival:open_arrival ~local_txn_cap:120 ();
         moves = 4;
         reconfigure_at = 40_000;
       })

let test_windowed_rejects_cgm () =
  let setup =
    { windowed_setup with Driver.protocol = Driver.Cgm_baseline Cgm.Site_level }
  in
  Alcotest.check_raises "CGM is single-domain"
    (Invalid_argument "Driver.run_windowed: the CGM baseline is single-domain only") (fun () ->
      ignore (Driver.run_windowed ~domains:2 setup))

let () =
  Alcotest.run "multicore"
    [
      ( "mailbox",
        [
          Alcotest.test_case "drain order" `Quick test_mailbox_drain_order;
          Alcotest.test_case "concurrent push" `Quick test_mailbox_concurrent_push;
        ] );
      ("engine", [ Alcotest.test_case "next_at" `Quick test_engine_next_at ]);
      ( "parallel",
        [
          Alcotest.test_case "pingpong windows" `Quick test_parallel_pingpong;
          Alcotest.test_case "domain invariance" `Quick test_parallel_domain_invariance;
          Alcotest.test_case "worker exception" `Quick test_parallel_worker_exception;
          Alcotest.test_case "one shard runs to the cap" `Quick test_parallel_one_shard;
        ] );
      ( "driver",
        [
          Alcotest.test_case "domain invariance" `Quick test_windowed_domain_invariance;
          Alcotest.test_case "clean and complete" `Quick test_windowed_clean_and_complete;
          Alcotest.test_case "obs merge" `Quick test_windowed_obs_merge;
          QCheck_alcotest.to_alcotest prop_windowed_equivalence;
          Alcotest.test_case "domains=1 golden digest" `Quick test_domains1_golden_digest;
          Alcotest.test_case "windowed closed-loop digest" `Quick test_windowed_closed_digest;
          Alcotest.test_case "windowed open-loop digest" `Quick test_windowed_open_digest;
          Alcotest.test_case "windowed crash digest" `Quick test_windowed_crash_digest;
          Alcotest.test_case "sequential moves open-loop digest" `Quick
            test_sequential_moves_open_digest;
          Alcotest.test_case "rejects CGM" `Quick test_windowed_rejects_cgm;
        ] );
    ]
