(* One workload, in this process: a warm-up rep, untraced reps until the
   time budget is spent, then (when traced) one rep with Obs on. Every
   number is taken from outside the program: the runner times calls into
   Driver, Report and the history checkers, and reads the counters and
   histograms the program exports into Obs and Dtm.totals. *)

open Perfbench
module Driver = Hermes_workload.Driver
module Spec = Hermes_workload.Spec
module Stats = Hermes_workload.Stats
module Dtm = Hermes_core.Dtm
module Obs = Hermes_obs.Obs
module Registry = Hermes_obs.Registry
module Histogram = Hermes_obs.Histogram
module Tracer = Hermes_obs.Tracer
module Json = Hermes_obs.Json
module Committed = Hermes_history.Committed
module Anomaly = Hermes_history.Anomaly
module Commit_order_graph = Hermes_history.Commit_order_graph
module Serialization_graph = Hermes_history.Serialization_graph
module Rigorous = Hermes_history.Rigorous
module Values = Hermes_history.Values
module View = Hermes_history.View
module Quasi = Hermes_history.Quasi
module Report = Hermes_history.Report
module Txn = Hermes_kernel.Txn

exception Nondeterministic of string

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int option;
  rep : int;  (* -1 outside any rep, 0 the warm-up, then 1, 2, ... *)
  name : string;
  start_ns : int;
  end_ns : int;
  wall_s : float option;  (* on driver.run spans: the execution phase inside the span *)
}

type tracer = {
  workload : string;
  mutable spans : span list;  (* newest first *)
  mutable open_ : int list;
  mutable next_id : int;
  mutable rep : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Runs [f] inside a span; returns its result and the span's length in
   seconds. *)
let span tr ?wall_s name f =
  let id = tr.next_id in
  tr.next_id <- id + 1;
  let parent = match tr.open_ with p :: _ -> Some p | [] -> None in
  tr.open_ <- id :: tr.open_;
  let start_ns = now_ns () in
  let r = Fun.protect ~finally:(fun () -> tr.open_ <- List.tl tr.open_) f in
  let end_ns = now_ns () in
  let wall_s = Option.map (fun g -> g r) wall_s in
  tr.spans <- { id; parent; rep = tr.rep; name; start_ns; end_ns; wall_s } :: tr.spans;
  (r, float_of_int (end_ns - start_ns) /. 1e9)

let span_json workload s =
  Json.Obj
    ([
       ("id", Json.Int s.id);
       ("parent", match s.parent with Some p -> Json.Int p | None -> Json.Null);
       ("workload", Json.String workload);
       ("rep", Json.Int s.rep);
       ("name", Json.String s.name);
       ("start_ns", Json.Int s.start_ns);
       ("end_ns", Json.Int s.end_ns);
     ]
    @ match s.wall_s with Some w -> [ ("wall_s", Json.Float w) ] | None -> [])

let spans_jsonl tr =
  String.concat "" (List.rev_map (fun s -> Json.to_string (span_json tr.workload s) ^ "\n") tr.spans)

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

type checked = {
  bad : int;  (* distinct transactions named by a distortion or on a CG cycle *)
  violations : string list;
  check_s : float;
  checkers : (string * float) list;  (* seconds per checker *)
}

(* The correctness check of a run's history: no global view distortion, an
   acyclic commit-order graph, and trace values that match the execution.
   Report.analyze adds rigorousness, SG and view-serializability checks
   whose cost grows too fast for the execution workloads' histories. *)
let check_history tr h =
  (* the run's garbage is collected first, so the check pays only for its
     own allocation *)
  Gc.compact ();
  let (distortions, cycle, mismatches, checkers), check_s =
    span tr "check" (fun () ->
        let c, t_ext = span tr "history.extended" (fun () -> Committed.extended h) in
        let d, t_dist = span tr "history.distortions" (fun () -> Anomaly.global_view_distortions c) in
        let cycle, t_cg = span tr "history.cg" (fun () -> Commit_order_graph.find_cycle c) in
        let m, t_val = span tr "history.values" (fun () -> Values.check h) in
        ( d,
          cycle,
          m,
          [
            ("history.extended", t_ext);
            ("history.distortions", t_dist);
            ("history.cg", t_cg);
            ("history.values", t_val);
          ] ))
  in
  let bad =
    List.sort_uniq Txn.compare
      (List.map (fun (d : Anomaly.global_distortion) -> d.Anomaly.txn) distortions
      @ Option.value cycle ~default:[])
  in
  let violations =
    (match distortions with
    | [] -> []
    | d :: _ ->
        [ Fmt.str "%d global view distortions (first: %a)" (List.length distortions) Anomaly.pp_global d ])
    @ (match cycle with None -> [] | Some c -> [ Fmt.str "CG cycle through %d transactions" (List.length c) ])
    @
    match mismatches with
    | [] -> []
    | m :: _ -> [ Fmt.str "%d value mismatches (first: %a)" (List.length mismatches) Values.pp_mismatch m ]
  in
  { bad = List.length bad; violations; check_s; checkers }

(* Each checker Report.analyze is built from, called on its own. *)
let run_checkers tr h =
  let c, t_ext = span tr "history.extended" (fun () -> Committed.extended h) in
  let time name f = (name, snd (span tr name f)) in
  [
    ("history.extended", t_ext);
    time "history.rigorous" (fun () -> ignore (Rigorous.check_all_sites h));
    time "history.sg" (fun () -> ignore (Serialization_graph.find_cycle c));
    time "history.cg" (fun () -> ignore (Commit_order_graph.find_cycle c));
    time "history.distortions" (fun () -> ignore (Anomaly.global_view_distortions c));
    time "history.view" (fun () -> ignore (View.view_serializable ~limit:10 c));
    time "history.quasi" (fun () -> ignore (Quasi.check c));
    time "history.values" (fun () -> ignore (Values.check h));
  ]

let fingerprint (r : Driver.result) =
  let l = Stats.latency_summary r.Driver.stats in
  Printf.sprintf "committed=%d gave_up=%d stuck=%d sim_ticks=%d events=%d latency=%h/%d/%d/%d/%d"
    (Stats.committed r.Driver.stats) (Stats.aborted_final r.Driver.stats) r.Driver.stuck r.Driver.sim_ticks
    r.Driver.events l.Stats.mean l.Stats.p50 l.Stats.p95 l.Stats.p99 l.Stats.max

let report_fingerprint rep = Digest.to_hex (Digest.string (Fmt.str "%a" Report.pp rep))

let agree tr ~expected actual =
  if actual <> expected then
    raise
      (Nondeterministic
         (Printf.sprintf "%s rep %d: expected %s, got %s" tr.workload tr.rep expected actual))

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                 *)
(* ------------------------------------------------------------------ *)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> find ()
        | None -> failwith "VmHWM missing from /proc/self/status"
      in
      find ())

(* Host-speed calibration. On a shared host the speed of allocation-heavy
   code drifts by tens of percent over minutes, far more than any bound a
   regression gate could use. A fixed reference kernel, timed between the
   measured intervals, drifts with it: each interval is scaled by
   [kernel_ref_s] over the mean of the kernel times on either side of it,
   i.e. reported in seconds of a host on which the kernel takes
   [kernel_ref_s]. The kernel is the benchmark's own code (it builds and
   probes a map and a hash table: allocation and pointer chasing like the
   workloads'), so a change to the program under test cannot move it. *)
module Int_map = Map.Make (Int)

let reference_kernel () =
  let m = ref Int_map.empty and h = Hashtbl.create 16 in
  for i = 1 to 75_000 do
    let k = i * 7919 land 0xFFFFF in
    m := Int_map.add k i !m;
    Hashtbl.replace h k (string_of_int i)
  done;
  let s = ref (Hashtbl.length h) in
  for i = 1 to 75_000 do
    s := !s + Option.value ~default:0 (Int_map.find_opt (i * 31 land 0xFFFFF) !m)
  done;
  !s

let kernel_ref_s = 0.08

let time_kernel () =
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (reference_kernel ()));
  Unix.gettimeofday () -. t0

type clock = { mutable kernel_s : float }

let clock () = { kernel_s = time_kernel () }

(* The calibration factor of the interval since the previous lap (or since
   the clock started). *)
let lap c =
  let k = time_kernel () in
  let factor = kernel_ref_s /. ((c.kernel_s +. k) /. 2.0) in
  c.kernel_s <- k;
  factor

(* Reps numbered [first], [first + 1], ... while another rep as long as
   the last one still fits in [seconds]; at least three. *)
let repeat tr ~first ~seconds f =
  let t0 = Unix.gettimeofday () in
  let rec go k last acc =
    let now = Unix.gettimeofday () in
    if k >= 3 && now -. t0 +. last > seconds then List.rev acc
    else begin
      tr.rep <- first + k;
      let x = f () in
      go (k + 1) (Unix.gettimeofday () -. now) (x :: acc)
    end
  in
  go 0 0.0 []

let median xs = (Summary.of_samples xs).Summary.median
let ratio a b = if b = 0.0 then 0.0 else a /. b
let ms ticks = float_of_int ticks /. 1000.0

(* Nearest-rank percentile of exact samples. *)
let percentile p = function
  | [] -> 0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      a.(max 0 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int (Array.length a))) - 1))

(* A percentile of the simulated commit latencies in ms. Stats keeps them
   in a log2 histogram and Stats.latency_summary reports a bucket's upper
   bound, which jumps by 2x when a seed moves the percentile across a power
   of two; this interpolates linearly inside the bucket instead (same rank
   rule), clamped to the exact extrema. *)
let latency_percentile (r : Driver.result) p =
  let h = Stats.latency_histogram r.Driver.stats in
  let n = Histogram.count h in
  let rank = min n ((p * n / 100) + 1) in
  let rec find before = function
    | [] -> float_of_int (Histogram.max_value h)
    | (lo, hi, c) :: rest ->
        if before + c >= rank then
          float_of_int lo +. (float_of_int (hi - lo) *. float_of_int (rank - before) /. float_of_int c)
        else find (before + c) rest
  in
  if n = 0 then 0.0
  else
    Float.min (float_of_int (Histogram.max_value h))
      (Float.max (float_of_int (Histogram.min_value h)) (find 0 (Histogram.nonzero_buckets h)))
    /. 1000.0

let sim_metrics (r : Driver.result) =
  [
    ("sim_tps", [ r.Driver.throughput ]);
    ("sim_p50_ms", [ latency_percentile r 50 ]);
    ("sim_mean_ms", [ (Stats.latency_summary r.Driver.stats).Stats.mean /. 1000.0 ]);
    ("sim_p99_ms", [ latency_percentile r 99 ]);
  ]

type gc_delta = { minor_words : float; promoted_words : float; major_collections : int }

let with_gc_delta f =
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  ( r,
    {
      minor_words = b.Gc.minor_words -. a.Gc.minor_words;
      promoted_words = b.Gc.promoted_words -. a.Gc.promoted_words;
      major_collections = b.Gc.major_collections - a.Gc.major_collections;
    } )

(* Driver.run inside a span carrying its execution wall time; returns the
   result and the whole call's seconds. *)
let run_driver tr ?(name = "driver.run") run setup =
  span tr ~wall_s:(fun r -> r.Driver.wall_s) name (fun () -> run setup)

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

(* What the traced phase measured. Times are calibrated. [exec_wall] is
   the median untraced execution wall time and [traced_wall] the traced
   rep's; [cold_op]/[warm_op] are the warm-up's and the median measured
   rep's time on the workload's measured operation. *)
type traced = {
  result : Driver.result;
  obs : Obs.t;
  exec_wall : float;
  traced_wall : float;
  cold_op : float;
  warm_op : float;
  speedup : float;  (* 0 when the workload runs on one domain *)
  checkers : (string * float) list;
  check_s : float;
  scaling_exp : float;  (* 0 unless the workload measures Report.analyze *)
  gc : gc_delta;  (* around the last untraced measured operation *)
}

let per_layer t =
  let r = t.result in
  let reg = Obs.metrics t.obs in
  let tot = r.Driver.totals and stats = r.Driver.stats in
  let f = float_of_int in
  let committed = f (Stats.committed stats) in
  let per_commit n = ratio (f n) committed in
  let count name = f (Registry.sum_counter reg name) in
  let p99 name = ms (Histogram.percentile (Registry.histogram_totals reg name) 99) in
  let high_water name =
    List.fold_left
      (fun acc (row : Registry.row) ->
        match row.Registry.value with
        | Registry.Gauge_value { high_water; _ } when row.Registry.name = name -> max acc high_water
        | _ -> acc)
      0 (Registry.rows reg)
  in
  let lock_waits =
    List.filter_map
      (function _, Tracer.Lock_wait { waited; _ } -> Some waited | _ -> None)
      (Tracer.events (Obs.trace t.obs))
  in
  let refusals =
    tot.Dtm.refused_extension + tot.Dtm.refused_interval + tot.Dtm.refused_dead + tot.Dtm.refused_epoch
    + tot.Dtm.refused_drift
  in
  let acceptor_forces = Registry.sum_counter reg "acceptor.log_force_writes" in
  let checker name = Option.value ~default:0.0 (List.assoc_opt name t.checkers) in
  [
    ("sim.events_per_commit", per_commit r.Driver.events);
    ("sim.ns_per_event", ratio (t.exec_wall *. 1e9) (f r.Driver.events));
    ("sim.cancelled_ratio", ratio (count "sim.cancelled") (count "sim.events"));
    ("sim.max_pending", f (high_water "sim.max_pending"));
    ("sim.parallel_speedup", t.speedup);
    ("net.msgs_per_commit", per_commit (Registry.sum_counter reg "net.sent"));
    ("net.drop_ratio", ratio (count "net.dropped") (count "net.sent"));
    ("net.overtakes", count "net.overtakes");
    ("net.delay_p99_ms", p99 "net.delay");
    ("agent.prepares_per_commit", per_commit tot.Dtm.prepared);
    ("agent.refusal_ratio", ratio (f refusals) (f (tot.Dtm.prepared + refusals)));
    ("agent.resubmissions", f tot.Dtm.resubmissions);
    ("agent.commit_retries_per_commit", per_commit tot.Dtm.commit_retries);
    ("agent.commit_delay_p99_ms", p99 "agent.commit_delay");
    ("agent.in_doubt_p99_ms", p99 "agent.in_doubt_time");
    ("agent.inquiries", count "agent.inquiries");
    ("coord.latency_p99_ms", p99 "coord.latency");
    ("coord.retransmissions", count "coord.retransmissions");
    ("coord.presumed_aborts", count "coord.presumed_aborts");
    ( "log.forces_per_commit",
      per_commit (tot.Dtm.agent_log_forces + tot.Dtm.coord_log_forces + acceptor_forces) );
    ("acceptor.forces_per_commit", per_commit acceptor_forces);
    ("acceptor.recovery_ballots", count "acceptor.recovery_ballots");
    ("group_commit.batch_fill", ratio (f tot.Dtm.gc_staged) (f tot.Dtm.gc_flushes));
    ("group_commit.flushes_per_commit", per_commit tot.Dtm.gc_flushes);
    ("ltm.abort_ratio", ratio (f tot.Dtm.ltm_aborted) (f (tot.Dtm.ltm_committed + tot.Dtm.ltm_aborted)));
    ("ltm.unilateral_aborts", f tot.Dtm.unilateral_aborts);
    ("ltm.lock_timeouts", f tot.Dtm.lock_timeouts);
    ("ltm.deadlock_victims", f tot.Dtm.deadlock_victims);
    ("ltm.dlu_denials", f tot.Dtm.dlu_denials);
    ("ltm.lock_wait_p99_ms", ms (percentile 99.0 lock_waits));
    ("placement.wrong_epoch_per_commit", per_commit tot.Dtm.refused_epoch);
    ("workload.retry_ratio", ratio (f (Stats.retries stats)) (f (Stats.attempts stats)));
    ("workload.useful_ratio", ratio committed (f (Stats.attempts stats)));
    ( "workload.local_abort_ratio",
      ratio (f (Stats.local_aborted stats)) (f (Stats.local_committed stats + Stats.local_aborted stats)) );
    ("history.extended_s", checker "history.extended");
    ("history.rigorous_s", checker "history.rigorous");
    ("history.sg_s", checker "history.sg");
    ("history.cg_s", checker "history.cg");
    ("history.distortions_s", checker "history.distortions");
    ("history.view_s", checker "history.view");
    ("history.quasi_s", checker "history.quasi");
    ("history.values_s", checker "history.values");
    ("history.scaling_exp", t.scaling_exp);
    ("history.check_s", t.check_s);
    ("obs.overhead", ratio t.traced_wall t.exec_wall);
    ("rt.minor_words_per_commit", ratio t.gc.minor_words committed);
    ("rt.promoted_ratio", ratio t.gc.promoted_words t.gc.minor_words);
    ("rt.major_collections", f t.gc.major_collections);
    ("rt.cold_penalty", ratio t.cold_op t.warm_op);
  ]

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int; mutable violations : string list }

let record tally tr violations =
  tally.violations <- tally.violations @ List.map (Printf.sprintf "rep %d: %s" tr.rep) violations

(* The end-to-end wall-clock samples, calibrated and raw, from (value,
   factor) pairs. [tps] is a throughput (divided by the factor), the others
   are times. *)
let wall_metrics ~tps ~verify ~setup =
  let scaled inverse xs = List.map (fun (x, k) -> if inverse then x /. k else x *. k) xs in
  let raw xs = List.map fst xs in
  ( [ ("wall_tps", scaled true tps); ("verify_s", scaled false verify); ("setup_s", scaled false setup) ],
    [ ("wall_tps", raw tps); ("verify_s", raw verify); ("setup_s", raw setup) ] )

type exec_rep = {
  result : Driver.result;
  run_k : float;  (* calibration factor of the Driver.run call *)
  setup_s : float;
  checked : checked;
  check_k : float;  (* calibration factor of the check *)
  gc : gc_delta;
}

(* The execution workloads: the measured operation is Driver.run, and
   every rep's history gets the correctness check. *)
let run_execute tr tally (w : Workloads.t) ~run ~seed ~seconds ~traced =
  let setup = w.Workloads.setup ~seed in
  let clock = clock () in
  let rep ?(obs = None) () =
    Gc.compact ();
    let (r, total), gc = with_gc_delta (fun () -> run_driver tr run { setup with Driver.obs }) in
    let run_k = lap clock in
    let c = check_history tr r.Driver.history in
    let check_k = lap clock in
    let stuck = if r.Driver.stuck > 0 then [ Printf.sprintf "%d globals stuck" r.Driver.stuck ] else [] in
    let slow =
      if r.Driver.throughput < w.Workloads.min_sim_tps then
        [ Printf.sprintf "sim_tps %.2f below its floor %.2f" r.Driver.throughput w.Workloads.min_sim_tps ]
      else []
    in
    record tally tr (c.violations @ stuck @ slow);
    tally.attempted <- tally.attempted + setup.Driver.spec.Spec.n_global;
    tally.failed <- tally.failed + c.bad + r.Driver.stuck + Stats.aborted_final r.Driver.stats;
    { result = r; run_k; setup_s = total -. r.Driver.wall_s; checked = c; check_k; gc }
  in
  tr.rep <- 0;
  let warm = rep () in
  let rss = peak_rss_mb () in
  let expected = fingerprint warm.result in
  let reps =
    repeat tr ~first:1 ~seconds (fun () ->
        let x = rep () in
        agree tr ~expected (fingerprint x.result);
        x)
  in
  let committed = float_of_int (Stats.committed warm.result.Driver.stats) in
  let scaled, raw =
    wall_metrics
      ~tps:(List.map (fun x -> (committed /. x.result.Driver.wall_s, x.run_k)) reps)
      ~verify:(List.map (fun x -> (x.checked.check_s, x.check_k)) reps)
      ~setup:(List.map (fun x -> (x.setup_s, x.run_k)) reps)
  in
  let end_to_end = scaled @ [ ("peak_rss_mb", [ rss ]) ] @ sim_metrics warm.result in
  let per_layer =
    if not traced then []
    else begin
      let exec_wall = median (List.map (fun x -> x.result.Driver.wall_s *. x.run_k) reps) in
      let last = List.nth reps (List.length reps - 1) in
      tr.rep <- List.length reps + 1;
      let obs = Obs.create () in
      let t = rep ~obs:(Some obs) () in
      agree tr ~expected (fingerprint t.result);
      let speedup =
        if setup.Driver.domains <= 1 then 0.0
        else begin
          (* one rep on the setup's own domain count, against the measured
             reps' single domain *)
          tr.rep <- tr.rep + 1;
          Gc.compact ();
          let r2, _ = run_driver tr ~name:"driver.run_parallel" Driver.run setup in
          let k2 = lap clock in
          agree tr ~expected (fingerprint r2);
          exec_wall /. (r2.Driver.wall_s *. k2)
        end
      in
      per_layer
        {
          result = t.result;
          obs;
          exec_wall;
          traced_wall = t.result.Driver.wall_s *. t.run_k;
          cold_op = warm.result.Driver.wall_s *. warm.run_k;
          warm_op = exec_wall;
          speedup;
          checkers = List.map (fun (n, s) -> (n, s *. t.check_k)) t.checked.checkers;
          check_s = t.checked.check_s *. t.check_k;
          scaling_exp = 0.0;
          gc = last.gc;
        }
    end
  in
  (expected, end_to_end, raw, per_layer)

(* verify-2k: the measured operation is Report.analyze on a generated
   history; generating it is the set-up, timed three more times after the
   warm-up. *)
let run_verify tr tally (w : Workloads.t) ~half ~seed ~seconds ~traced =
  let setup = w.Workloads.setup ~seed in
  let gen, _ = run_driver tr Driver.run setup in
  let h = gen.Driver.history in
  record tally tr (check_history tr h).violations;
  let committed = float_of_int (Stats.committed gen.Driver.stats) in
  let clock = clock () in
  let analyze h =
    Gc.compact ();
    let (report, t), gc = with_gc_delta (fun () -> span tr "report.analyze" (fun () -> Report.analyze h)) in
    (report, t, lap clock, gc)
  in
  let rep () =
    let ((report, _, _, _) as x) = analyze h in
    tally.attempted <- tally.attempted + 1;
    if not (Report.ok report) then begin
      tally.failed <- tally.failed + 1;
      record tally tr [ "Report.analyze: the verdict is not ok" ]
    end;
    x
  in
  tr.rep <- 0;
  let warm, cold, cold_k, _ = rep () in
  let rss = peak_rss_mb () in
  let expected = fingerprint gen and expected_report = report_fingerprint warm in
  tr.rep <- -1;
  let gens =
    List.init 3 (fun _ ->
        Gc.compact ();
        let r, total = run_driver tr Driver.run setup in
        let k = lap clock in
        agree tr ~expected (fingerprint r);
        (r.Driver.wall_s, total, k))
  in
  let reps =
    repeat tr ~first:1 ~seconds (fun () ->
        let ((report, _, _, _) as x) = rep () in
        agree tr ~expected:expected_report (report_fingerprint report);
        x)
  in
  let times = List.map (fun (_, t, k, _) -> (t, k)) reps in
  let scaled, raw =
    wall_metrics
      ~tps:(List.map (fun (t, k) -> (committed /. t, k)) times)
      ~verify:times
      ~setup:(List.map (fun (_, total, k) -> (total, k)) gens)
  in
  let end_to_end = scaled @ [ ("peak_rss_mb", [ rss ]) ] @ sim_metrics gen in
  let per_layer =
    if not traced then []
    else begin
      let warm_op = median (List.map (fun (t, k) -> t *. k) times) in
      let _, _, _, gc = List.nth reps (List.length reps - 1) in
      tr.rep <- List.length reps + 1;
      let obs = Obs.create () in
      Gc.compact ();
      let r, _ = run_driver tr Driver.run { setup with Driver.obs = Some obs } in
      let run_k = lap clock in
      agree tr ~expected (fingerprint r);
      let checkers, _ = span tr "checkers" (fun () -> run_checkers tr h) in
      let c = check_history tr h in
      let check_k = lap clock in
      (* Report.analyze at half the size, for the growth exponent *)
      tr.rep <- tr.rep + 1;
      let small = (fst (run_driver tr Driver.run (half ~seed))).Driver.history in
      ignore (lap clock);
      let small_t = median (List.init 3 (fun _ -> let _, t, k, _ = analyze small in t *. k)) in
      per_layer
        {
          result = r;
          obs;
          exec_wall = median (List.map (fun (wall, _, k) -> wall *. k) gens);
          traced_wall = r.Driver.wall_s *. run_k;
          cold_op = cold *. cold_k;
          warm_op;
          speedup = 0.0;
          checkers = List.map (fun (n, t) -> (n, t *. check_k)) checkers;
          check_s = c.check_s *. check_k;
          scaling_exp = Float.log2 (warm_op /. small_t);
          gc;
        }
    end
  in
  (expected ^ " report=" ^ expected_report, end_to_end, raw, per_layer)

let run (w : Workloads.t) ~seed ~seconds ~traced =
  let tr = { workload = w.Workloads.name; spans = []; open_ = []; next_id = 1; rep = -1 } in
  let tally = { attempted = 0; failed = 0; violations = [] } in
  let (fingerprint, end_to_end, raw, per_layer), _ =
    span tr "workload" (fun () ->
        match w.Workloads.kind with
        | Workloads.Execute { run } -> run_execute tr tally w ~run ~seed ~seconds ~traced
        | Workloads.Verify { half } -> run_verify tr tally w ~half ~seed ~seconds ~traced)
  in
  let names l = List.map fst l in
  let metric_names = List.map (fun (m : Metric.end_to_end) -> m.Metric.name) in
  if names end_to_end <> metric_names (Metric.end_to_end @ [ Metric.sim_p99_ms ]) then
    failwith "Runner: end-to-end metrics out of step with the catalogue";
  if traced && names per_layer <> List.map (fun (n, _, _) -> n) Metric.per_layer_metrics then
    failwith "Runner: per-layer metrics out of step with the catalogue";
  ( {
      Outcome.workload = w.Workloads.name;
      seed;
      correct = tally.violations = [];
      attempted = tally.attempted;
      failed = tally.failed;
      fingerprint;
      checks = tally.violations;
      end_to_end;
      raw;
      per_layer;
    },
    tr )
