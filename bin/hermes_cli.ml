(* The hermes command-line interface.

     hermes run         -- one workload simulation, with a verification report
     hermes scenario    -- replay a paper anomaly (h1 | h2 | h3 | overtake)
     hermes experiments -- print the experiment tables (E1..E19)

   All simulations are deterministic in the seed. *)

open Cmdliner
module Config = Hermes_core.Config
module Dtm = Hermes_core.Dtm
module Cgm = Hermes_baselines.Cgm
module Failure = Hermes_ltm.Failure
module Network = Hermes_net.Network
module Spec = Hermes_workload.Spec
module Stats = Hermes_workload.Stats
module Driver = Hermes_workload.Driver
module Scenario = Hermes_harness.Scenario
module Experiment = Hermes_harness.Experiment
module Table_fmt = Hermes_harness.Table_fmt
module Report = Hermes_history.Report
module History = Hermes_history.History
module Committed = Hermes_history.Committed
module Correctness = Hermes_history.Correctness
module Obs = Hermes_obs.Obs
module Registry = Hermes_obs.Registry
module Tracer = Hermes_obs.Tracer
module Obs_report = Hermes_harness.Obs_report

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed (runs are deterministic).")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the metrics registry to $(docv): JSON, or CSV when $(docv) ends in $(b,.csv).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the structured event trace to $(docv): JSON lines, or CSV when $(docv) ends in $(b,.csv).")

let metrics_summary_arg =
  Arg.(value & flag & info [ "metrics-summary" ] ~doc:"Print an ASCII summary table of the collected metrics.")

(* An Obs context if any observability output was requested, else None
   (instrumentation then costs nothing). *)
let obs_of_flags ~metrics_out ~trace_out ~summary =
  if metrics_out <> None || trace_out <> None || summary then Some (Obs.create ()) else None

let write_obs_outputs obs ~metrics_out ~trace_out ~summary =
  match obs with
  | None -> ()
  | Some o ->
      if summary then Obs_report.print (Obs.metrics o);
      Option.iter
        (fun path ->
          Obs.write_metrics o path;
          Fmt.pr "metrics written to %s@." path)
        metrics_out;
      Option.iter
        (fun path ->
          Obs.write_trace o path;
          Fmt.pr "trace written to %s (%d events)@." path (Tracer.length (Obs.trace o)))
        trace_out

(* Open every output path a command was given before it simulates or
   verifies anything: one that cannot be written is a usage error (exit
   2), not an exception at the end of the run. A missing file is created
   empty and an existing one is left as it is until the command writes
   it. The error names the path: "PATH: REASON". *)
let require_writable paths =
  List.iter
    (fun path ->
      match open_out_gen [ Open_wronly; Open_creat ] 0o644 path with
      | oc -> close_out oc
      | exception Sys_error msg ->
          Fmt.epr "hermes: cannot write %s@." msg;
          exit 2)
    (List.filter_map Fun.id paths)

(* Structured logging: components emit on the hermes.* sources (agent,
   coordinator, ltm, net); every message carries the simulated time. *)
let setup_logs =
  let level =
    Arg.(
      value
      & opt (enum [ ("quiet", None); ("info", Some Logs.Info); ("debug", Some Logs.Debug) ]) None
      & info [ "log" ] ~docv:"LEVEL" ~doc:"Log verbosity: $(b,quiet), $(b,info) or $(b,debug).")
  in
  let setup level =
    Fmt_tty.setup_std_outputs ();
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level level
  in
  Term.(const setup $ level)

let certifier_conv =
  let parse = function
    | "full" | "2cm" -> Ok Config.full
    | "naive" -> Ok Config.naive
    | "ticket" -> Ok Config.ticket
    | "no-extension" -> Ok Config.without_extension
    | "no-commit-cert" -> Ok Config.without_commit_certification
    | "no-prepare-cert" -> Ok Config.without_prepare_certification
    | "no-dlu" -> Ok Config.without_dlu
    | "commit-only" -> Ok { Config.naive with Config.commit_certification = true }
    | "prepare-only" -> Ok { Config.naive with Config.prepare_certification = true; bind_data = true }
    | s -> Error (`Msg (Fmt.str "unknown certifier %S" s))
  in
  Arg.conv (parse, fun ppf c -> Config.pp ppf c)

let certifier_arg =
  Arg.(
    value
    & opt certifier_conv Config.full
    & info [ "certifier"; "c" ] ~docv:"CERTIFIER"
        ~doc:
          "Certifier variant: $(b,full), $(b,naive), $(b,ticket), $(b,commit-only), $(b,prepare-only), \
           $(b,no-extension), $(b,no-commit-cert), $(b,no-prepare-cert), $(b,no-dlu).")

let commit_proto_arg =
  Arg.(
    value
    & opt (enum [ ("2pc", `Two_pc); ("backup-tm", `Backup_tm); ("paxos", `Paxos) ]) `Two_pc
    & info [ "commit-proto" ] ~docv:"PROTO"
        ~doc:
          "Commit protocol: $(b,2pc) (plain presumed-abort 2PC, the default), $(b,backup-tm) (the \
           decision also lands on one backup TM at another site — non-blocking for a single \
           failure), or $(b,paxos) (Paxos Commit: the decision is a Paxos-replicated register \
           across 2F+1 acceptors; see $(b,--paxos-f)).")

let paxos_f_arg =
  Arg.(
    value
    & opt int 1
    & info [ "paxos-f" ] ~docv:"F"
        ~doc:
          "Fault tolerance of $(b,--commit-proto paxos): 2$(docv)+1 acceptors, write/read quorums \
           of $(docv)+1. The commit decision survives any $(docv) permanent failures.")

let resolve_commit_proto proto f =
  match proto with
  | `Two_pc -> Config.Two_pc
  | `Backup_tm -> Config.backup_tm
  | `Paxos ->
      if f < 1 || (2 * f) + 1 > Hermes_kernel.Wire.max_acceptors then begin
        Fmt.epr "hermes: --paxos-f must be between 1 and %d@." ((Hermes_kernel.Wire.max_acceptors - 1) / 2);
        exit 2
      end;
      Config.Paxos { f }

(* The adversary and countermeasure fields [run] and [explore] share.
   A negative drift bound would refuse every PREPARE, so it is an error
   like a [--paxos-f] below 1. *)
let with_adversary certifier ~lying_sites ~equivocate ~sn_drift ~certificates ~drift_bound
    ~suspicion =
  (match drift_bound with
  | Some n when n < 0 ->
      Fmt.epr "hermes: --drift-bound must be non-negative@.";
      exit 2
  | Some _ | None -> ());
  {
    certifier with
    Config.adversary = { Config.lying_sites; equivocate; sn_drift };
    decision_certificates = certificates;
    max_sn_drift = drift_bound;
    suspicion_timeout = suspicion;
  }

(* ------------------------------------------------------------------ *)
(* hermes run                                                          *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let sites = Arg.(value & opt int 3 & info [ "sites" ] ~doc:"Number of autonomous sites.") in
  let globals = Arg.(value & opt int 100 & info [ "globals"; "n" ] ~doc:"Global transactions to run.") in
  let mpl = Arg.(value & opt int 4 & info [ "mpl" ] ~doc:"Concurrent global clients.") in
  let failure_p =
    Arg.(value & opt float 0.0 & info [ "failure" ] ~doc:"P(unilateral abort | prepared subtransaction).")
  in
  let jitter = Arg.(value & opt int 200 & info [ "jitter" ] ~doc:"Network jitter in ticks.") in
  let drop =
    Arg.(value & opt float 0.0 & info [ "drop" ] ~doc:"P(a message is dropped by the network).")
  in
  let dup =
    Arg.(value & opt float 0.0 & info [ "dup" ] ~doc:"P(a message is duplicated by the network).")
  in
  let crashes =
    Arg.(value & opt int 0 & info [ "crashes" ] ~doc:"Schedule $(docv) full site crashes across the run." ~docv:"N")
  in
  let reboot_delay =
    Arg.(
      value
      & opt int 0
      & info [ "reboot-delay" ]
          ~doc:"Ticks a crashed site stays down before recovery (0 = instantaneous reboot).")
  in
  let crash_coordinator =
    Arg.(
      value
      & flag
      & info [ "crash-coordinator" ]
          ~doc:
            "Scheduled crashes also take down the coordinators hosted at the site; they reboot \
             from the coordinator log and participants run the in-doubt termination protocol.")
  in
  let drift = Arg.(value & opt int 0 & info [ "drift" ] ~doc:"Site clock drift: site i gets +/-DRIFT ticks.") in
  let theta =
    Arg.(value & opt float 0.6 & info [ "theta"; "zipf" ] ~docv:"THETA" ~doc:"Zipf skew of key accesses.")
  in
  let open_loop =
    Arg.(
      value
      & opt (some float) None
      & info [ "open-loop" ] ~docv:"RATE"
          ~doc:
            "Open-loop arrivals: Poisson at $(docv) global transactions per simulated second. \
             $(b,--mpl) becomes the in-service cap (arrivals beyond it queue) and latency is \
             measured from arrival. Without this flag the workload is the classic closed loop.")
  in
  let group_commit =
    Arg.(
      value
      & flag
      & info [ "group-commit" ]
          ~doc:
            (Fmt.str
               "Group commit: agents and coordinators stage their forced log records and pay one \
                synchronous force per batch (%d-tick flush window, %d-record batches)."
               Config.grouped.Config.group_commit_window Config.grouped.Config.max_batch))
  in
  let cgm =
    Arg.(
      value
      & opt (some (enum [ ("site", Cgm.Site_level); ("table", Cgm.Table_level) ])) None
      & info [ "cgm" ] ~doc:"Use the CGM baseline at $(b,site) or $(b,table) granularity instead of 2CM.")
  in
  let domains =
    Arg.(
      value
      & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Run the simulation's sites on $(docv) OCaml domains with the conservative windowed \
             scheduler (within-run parallelism; contrast $(b,experiments --jobs), which fans \
             independent seeded runs out across domains). $(docv) = 1 runs every site on one \
             execution shard, the schedule the golden digests pin. Above 1 every site is its own \
             shard: that schedule is deterministic and identical for every $(docv) > 1, but \
             differs from the one-shard one.")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Size of the shard space in the placement map (default: one shard per site). Keys hash \
             onto shards; the epoch-versioned map sends each shard's traffic to its owning site.")
  in
  let moves =
    Arg.(
      value
      & opt int 0
      & info [ "moves" ] ~docv:"N"
          ~doc:
            "Schedule $(docv) online shard moves across the run. Each move installs a new placement \
             epoch after the losing agent hands the moved shard's prepared certification state to \
             the gaining site; in-flight old-epoch work is refused (WRONG-EPOCH) and resubmitted \
             against the new map. 2CM, one execution shard only.")
  in
  let reconfigure_at =
    Arg.(
      value
      & opt int 30_000
      & info [ "reconfigure-at" ] ~docv:"TICK"
          ~doc:"Tick of the first scheduled shard move; move $(i,m) fires at $(i,m) * $(docv).")
  in
  let leave_at =
    Arg.(
      value
      & opt_all (pair ~sep:':' int int) []
      & info [ "leave-at" ] ~docv:"TICK:SITE"
          ~doc:
            "Schedule site $(i,SITE) to leave the serving set at tick $(i,TICK): its shards \
             redistribute over the survivors after a prepared-state handover. Repeatable. 2CM, \
             one execution shard only.")
  in
  let join_at =
    Arg.(
      value
      & opt_all (pair ~sep:':' int int) []
      & info [ "join-at" ] ~docv:"TICK:SITE"
          ~doc:
            "Schedule site $(i,SITE) to (re)join the serving set at tick $(i,TICK); the joiner \
             owns nothing until a later move rebalances onto it. Pair with an earlier \
             $(b,--leave-at) of the same site. Repeatable.")
  in
  let lying_sites =
    Arg.(
      value
      & opt (list int) []
      & info [ "lying-sites" ] ~docv:"SITES"
          ~doc:
            "Adversary: agents at these sites vote READY without preparing, deny having prepared \
             when asked, and silently drop their local commit. Defend with $(b,--certificates).")
  in
  let equivocate =
    Arg.(
      value
      & flag
      & info [ "equivocate" ]
          ~doc:
            "Adversary: committing coordinators send COMMIT to the first half of the participants \
             and a bare ROLLBACK to the rest. Defend with $(b,--certificates) (+ $(b,--suspicion)).")
  in
  let sn_drift =
    Arg.(
      value
      & opt int 0
      & info [ "sn-drift" ] ~docv:"TICKS"
          ~doc:
            "Adversary: even-gid coordinators draw serial numbers $(docv) ticks in the past \
             (stale clocks). Defend with $(b,--drift-bound).")
  in
  let gray_sites =
    Arg.(
      value
      & opt (list int) []
      & info [ "gray-sites" ] ~docv:"SITES"
          ~doc:
            "Gray failure: these sites stay alive but all their links run $(b,--gray-factor) \
             times slower — crash detection never trips. Defend with $(b,--suspicion).")
  in
  let gray_factor =
    Arg.(
      value
      & opt int 20
      & info [ "gray-factor" ] ~docv:"N"
          ~doc:"Latency multiplier for $(b,--gray-sites) links.")
  in
  let certificates =
    Arg.(
      value
      & flag
      & info [ "certificates" ]
          ~doc:
            "Countermeasure: votes and decisions must carry certificates; uncertified READY votes \
             are rejected at the coordinator and bare decisions at prepared participants are \
             dropped as equivocation.")
  in
  let drift_bound =
    Arg.(
      value
      & opt (some int) None
      & info [ "drift-bound" ] ~docv:"TICKS"
          ~doc:
            "Countermeasure: refuse any PREPARE whose serial number is more than $(docv) ticks \
             older than the local clock (DRIFT-REFUSED; the round retries with a fresh number).")
  in
  let suspicion =
    Arg.(
      value
      & opt int 0
      & info [ "suspicion" ] ~docv:"TICKS"
          ~doc:
            "Countermeasure: mutual-suspicion timeout — a participant prepared for $(docv) ticks \
             without a decision suspects its coordinator and escalates to the termination path \
             (decision inquiry / recovery ballot), bounding the in-doubt window.")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Also print the committed projection.") in
  let dump =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump" ] ~docv:"FILE" ~doc:"Write the recorded history to $(docv) (verify it later with $(b,hermes verify)).")
  in
  let run () certifier commit_proto paxos_f cgm sites globals mpl failure_p jitter drop dup crashes
      reboot_delay crash_coordinator drift theta open_loop group_commit shards moves reconfigure_at
      leave_at join_at lying_sites equivocate sn_drift gray_sites gray_factor certificates
      drift_bound suspicion domains seed verbose dump metrics_out trace_out metrics_summary =
    if domains > 1 && trace_out <> None then
      (* The windowed engine writes the deterministic merged trace — a
         valid schedule, but not the one-shard one the golden digests
         are pinned to. *)
      Fmt.epr "hermes: note: --trace-out with --domains %d writes the deterministic merged \
               windowed trace; golden trace digests are pinned to the one-shard schedule only@."
        domains;
    if domains > 1 && cgm <> None then begin
      Fmt.epr "hermes: --domains %d requires the 2CM protocol (the CGM baseline is single-domain \
               only)@." domains;
      exit 2
    end;
    if moves > 0 && (cgm <> None || domains > 1) then begin
      Fmt.epr "hermes: --moves requires the 2CM protocol on one execution shard (--domains 1)@.";
      exit 2
    end;
    if (leave_at <> [] || join_at <> []) && (cgm <> None || domains > 1) then begin
      Fmt.epr "hermes: --leave-at/--join-at require the 2CM protocol on one execution shard \
               (--domains 1)@.";
      exit 2
    end;
    let commit_proto = resolve_commit_proto commit_proto paxos_f in
    if domains > 1 && commit_proto <> Config.Two_pc then begin
      Fmt.epr "hermes: --domains %d requires --commit-proto 2pc (replicated commit protocols run \
               on one execution shard only)@." domains;
      exit 2
    end;
    let certifier =
      with_adversary { certifier with Config.commit_proto } ~lying_sites ~equivocate ~sn_drift
        ~certificates ~drift_bound ~suspicion
    in
    let certifier =
      if group_commit then
        {
          certifier with
          Config.group_commit_window = Config.grouped.Config.group_commit_window;
          max_batch = Config.grouped.Config.max_batch;
        }
      else certifier
    in
    let protocol =
      match cgm with
      | Some granularity -> Driver.Cgm_baseline granularity
      | None -> Driver.Two_pca certifier
    in
    require_writable [ dump; metrics_out; trace_out ];
    let obs = obs_of_flags ~metrics_out ~trace_out ~summary:metrics_summary in
    let crash_schedule =
      List.init crashes (fun i -> (20_000 + (i * 30_000), i mod max 1 sites))
    in
    let setup =
      {
        Driver.default_setup with
        Driver.protocol;
        failure = Failure.prepared_rate failure_p;
        net =
          {
            Network.base_delay = 500;
            jitter;
            faults = { Network.drop; dup; gray_sites; gray_factor };
          };
        clock_of_site =
          (fun i -> Hermes_kernel.Clock.make ~offset:(if i mod 2 = 0 then drift else -drift) ());
        seed;
        spec =
          (match open_loop with
          | Some rate ->
              Spec.make ~n_sites:sites ?n_shards:shards ~n_global:globals
                ~arrival:(Spec.Open { rate; max_in_flight = mpl })
                ~key_dist:(Spec.Zipf { theta }) ()
          | None ->
              Spec.make ~n_sites:sites ?n_shards:shards ~n_global:globals
                ~arrival:(Spec.Closed { mpl; think_time_mean = Spec.think_time Spec.default })
                ~key_dist:(Spec.Zipf { theta }) ());
        crash_schedule;
        reboot_delay;
        crash_coordinators = crash_coordinator;
        obs;
        moves;
        reconfigure_at;
        leave_schedule = leave_at;
        join_schedule = join_at;
        domains;
      }
    in
    let r = Driver.run setup in
    let s = r.Driver.stats in
    Fmt.pr "protocol: %s, seed %d@." (Driver.protocol_name protocol) seed;
    if commit_proto <> Config.Two_pc then
      Fmt.pr "commit protocol: %a@." Config.pp_commit_proto commit_proto;
    if domains > 1 then
      Fmt.pr "engine: windowed, %d domains, %.3fs wall (%.0f txns/s wall)@." domains r.Driver.wall_s
        (if r.Driver.wall_s > 0.0 then float_of_int (Stats.committed s) /. r.Driver.wall_s else 0.0);
    Fmt.pr "global txns: %d committed, %d gave up, %d retries, %d stuck@." (Stats.committed s)
      (Stats.aborted_final s) (Stats.retries s) r.Driver.stuck;
    Fmt.pr "local txns: %d committed, %d aborted@." (Stats.local_committed s) (Stats.local_aborted s);
    let lat = Stats.latency_summary s in
    Fmt.pr "latency: mean %.1fms, p50 %.1fms, p95 %.1fms, p99 %.1fms@." (lat.Stats.mean /. 1000.0)
      (float_of_int lat.Stats.p50 /. 1000.0)
      (float_of_int lat.Stats.p95 /. 1000.0)
      (float_of_int lat.Stats.p99 /. 1000.0);
    Fmt.pr "throughput: %.1f commits/s over %.1fms simulated@." r.Driver.throughput
      (float_of_int r.Driver.sim_ticks /. 1000.0);
    let t = r.Driver.totals in
    Fmt.pr "certifier: %d prepared, refusals ext/interval/dead %d/%d/%d, %d resubmissions, %d commit retries, %d DLU denials@."
      t.Dtm.prepared t.Dtm.refused_extension t.Dtm.refused_interval t.Dtm.refused_dead t.Dtm.resubmissions
      t.Dtm.commit_retries t.Dtm.dlu_denials;
    if moves > 0 || leave_at <> [] || join_at <> [] then
      Fmt.pr "placement: %d scheduled moves, %d leaves, %d joins, %d wrong-epoch refusals@." moves
        (List.length leave_at) (List.length join_at) t.Dtm.refused_epoch;
    if lying_sites <> [] || equivocate || sn_drift > 0 || gray_sites <> [] || drift_bound <> None
    then
      Fmt.pr "adversary: lying %a, equivocate %b, sn-drift %d, gray %a (x%d); %d drift refusals@."
        Fmt.(Dump.list int) lying_sites equivocate sn_drift Fmt.(Dump.list int) gray_sites
        gray_factor t.Dtm.refused_drift;
    if Config.group_commit certifier then
      Fmt.pr "group commit: %d log forces (%d agent, %d coord), %d coord flushes, avg coord batch %.1f@."
        (t.Dtm.agent_log_forces + t.Dtm.coord_log_forces)
        t.Dtm.agent_log_forces t.Dtm.coord_log_forces t.Dtm.gc_flushes
        (if t.Dtm.gc_flushes = 0 then 0.0
         else float_of_int t.Dtm.gc_staged /. float_of_int t.Dtm.gc_flushes);
    (match r.Driver.cgm with
    | Some c ->
        Fmt.pr "CGM: %d gate delays, %d global-lock timeouts@." c.Cgm.gate_delays
          c.Cgm.glock_timeouts
    | None -> ());
    if verbose then Fmt.pr "@.committed projection:@.%a@." History.pp_with_from (Committed.extended r.Driver.history);
    (match dump with
    | Some path ->
        Hermes_history.Serial_format.to_file r.Driver.history path;
        Fmt.pr "history written to %s (%d operations)@." path (History.length r.Driver.history)
    | None -> ());
    write_obs_outputs obs ~metrics_out ~trace_out ~summary:metrics_summary;
    let rep = Report.analyze r.Driver.history in
    Fmt.pr "@.%a@." Report.pp rep;
    if Report.ok rep then 0 else 1
  in
  let term =
    Term.(
      const run $ setup_logs $ certifier_arg $ commit_proto_arg $ paxos_f_arg $ cgm $ sites
      $ globals $ mpl $ failure_p $ jitter $ drop $ dup $ crashes $ reboot_delay
      $ crash_coordinator $ drift $ theta $ open_loop $ group_commit $ shards $ moves
      $ reconfigure_at $ leave_at $ join_at $ lying_sites $ equivocate $ sn_drift $ gray_sites
      $ gray_factor $ certificates $ drift_bound $ suspicion $ domains $ seed_arg $ verbose $ dump
      $ metrics_out_arg $ trace_out_arg $ metrics_summary_arg)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload simulation and verify the recorded history.")
    term

(* ------------------------------------------------------------------ *)
(* hermes scenario                                                     *)
(* ------------------------------------------------------------------ *)

let scenario_cmd =
  let which =
    Arg.(
      required
      & pos 0 (some (enum [ ("h1", `H1); ("h2", `H2); ("h3", `H3); ("overtake", `Overtake) ])) None
      & info [] ~docv:"SCENARIO" ~doc:"One of $(b,h1), $(b,h2), $(b,h3), $(b,overtake).")
  in
  let jitter = Arg.(value & opt int 8_000 & info [ "jitter" ] ~doc:"Jitter for the overtake scenario.") in
  let run () which certifier seed jitter metrics_out trace_out metrics_summary =
    require_writable [ metrics_out; trace_out ];
    let obs = obs_of_flags ~metrics_out ~trace_out ~summary:metrics_summary in
    let show (r : Scenario.run) =
      List.iter (fun (l, o) -> Fmt.pr "%s: %a@." l Scenario.pp_outcome_opt o) r.Scenario.outcomes;
      List.iter (fun (l, ok) -> Fmt.pr "%s (local): %s@." l (if ok then "committed" else "failed")) r.Scenario.locals;
      Fmt.pr "@.committed projection:@.  %a@." History.pp_with_from (Committed.extended r.Scenario.history);
      Fmt.pr "@.%a@." Report.pp r.Scenario.report;
      write_obs_outputs obs ~metrics_out ~trace_out ~summary:metrics_summary;
      if Report.ok r.Scenario.report then 0 else 1
    in
    match which with
    | `H1 -> show (Scenario.h1 ~certifier ~seed ?obs ())
    | `H2 -> show (Scenario.h2 ~certifier ~seed ?obs ())
    | `H3 -> show (Scenario.h3 ~certifier ~seed ?obs ())
    | `Overtake ->
        let r = Scenario.overtake ~certifier ?obs ~jitter ~seed () in
        Fmt.pr "overtaken: %b, extension refusals: %d@." r.Scenario.overtaken r.Scenario.extension_refusals;
        show r.Scenario.o_run
  in
  let term =
    Term.(
      const run $ setup_logs $ which $ certifier_arg $ seed_arg $ jitter $ metrics_out_arg $ trace_out_arg
      $ metrics_summary_arg)
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:"Replay a paper anomaly (H1/H2/H3/S5.3 overtake) through the protocol stack.")
    term

(* ------------------------------------------------------------------ *)
(* hermes verify                                                       *)
(* ------------------------------------------------------------------ *)

let verify_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"A dumped history.") in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Also print the committed projection.") in
  (* An offline report as a metrics dump, so verification results of many
     histories can be collected the same way as run metrics. *)
  let report_metrics (rep : Report.t) path =
    let obs = Obs.create () in
    let reg = Obs.metrics obs in
    let c name v = Registry.Counter.add (Registry.counter reg name) v in
    c "verify.ops" rep.Report.n_ops;
    c "verify.txns_global" rep.Report.n_global;
    c "verify.txns_local" rep.Report.n_local;
    let v = rep.Report.verdict in
    c "verify.rigorous_violations"
      (List.fold_left (fun n (_, vs) -> n + List.length vs) 0 v.Correctness.rigorous_violations);
    c "verify.global_distortions" (List.length v.Correctness.distortions);
    c "verify.value_mismatches" (List.length v.Correctness.value_mismatches);
    c "verify.torn_globals" (List.length v.Correctness.torn);
    let g name holds = Registry.Gauge.set (Registry.gauge reg name) (if holds then 1 else 0) in
    g "verify.serializable" (Correctness.serializable v);
    g "verify.rigorous" (Correctness.rigorous v);
    (* the verdict the exit code reports *)
    g "verify.ok" (Report.ok rep);
    Obs.write_metrics obs path;
    Fmt.pr "metrics written to %s@." path
  in
  let run () file verbose metrics_out =
    require_writable [ metrics_out ];
    match Hermes_history.Serial_format.of_file file with
    | exception Hermes_history.Serial_format.Parse_error (line, msg) ->
        Fmt.epr "%s:%d: %s@." file line msg;
        2
    | h ->
        Fmt.pr "%s: %d operations, %d transactions@." file (History.length h)
          (List.length (History.txns h));
        if verbose then Fmt.pr "@.committed projection:@.%a@." History.pp_with_from (Committed.extended h);
        let rep = Report.analyze h in
        (* written first, as [run] writes its files, so that the output
           from the report on is the same as [run]'s *)
        Option.iter (report_metrics rep) metrics_out;
        Fmt.pr "@.%a@." Report.pp rep;
        if Report.ok rep then 0 else 1
  in
  let term = Term.(const run $ setup_logs $ file $ verbose $ metrics_out_arg) in
  Cmd.v
    (Cmd.info "verify" ~doc:"Re-verify a dumped history offline (rigorousness, distortions, CG, VSR).")
    term

(* ------------------------------------------------------------------ *)
(* hermes experiments                                                  *)
(* ------------------------------------------------------------------ *)

let experiments_cmd =
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Fewer seeds per cell.") in
  let seeds =
    Arg.(
      value
      & opt (some int) None
      & info [ "seeds" ] ~docv:"N" ~doc:"Override every experiment's seed count (wins over $(b,--quick)).")
  in
  let only =
    let names = List.map fst (Experiment.tables ~seeds_of:Fun.id ()) in
    Arg.(
      value
      & opt (some (enum (List.map (fun n -> (n, n)) names))) None
      & info [ "only" ] ~docv:"EXP"
          ~doc:"Run a single experiment ($(b,e1)..$(b,e19); $(b,e9) is retired).")
  in
  let jobs =
    Arg.(
      value
      & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Fan each experiment's seed sweep out over $(docv) domains — parallelism ACROSS \
             independent seeded runs. Tables and metrics are byte-identical to a sequential run. \
             Contrast $(b,--domains), which parallelizes WITHIN a run and only affects E16.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Override E16's domain sweep to {1, $(docv)}: each scaling block runs the windowed \
             engine single-domain and on $(docv) domains. Other experiments are unaffected (they \
             run every site on one execution shard, for byte-identical tables). Contrast \
             $(b,--jobs), which fans independent seeded runs out across domains.")
  in
  let run () quick seeds only jobs domains metrics_out metrics_summary =
    require_writable [ metrics_out ];
    let obs = obs_of_flags ~metrics_out ~trace_out:None ~summary:metrics_summary in
    let seeds_of default =
      match seeds with Some n -> n | None -> if quick then max 1 (default / 3) else default
    in
    let tables =
      Experiment.tables ~seeds_of ~jobs ?metrics:(Option.map Obs.metrics obs) ?domains ()
    in
    let tables =
      match only with None -> tables | Some name -> List.filter (fun (n, _) -> n = name) tables
    in
    List.iter (fun (_, table) -> Table_fmt.print (table ())) tables;
    write_obs_outputs obs ~metrics_out ~trace_out:None ~summary:metrics_summary;
    0
  in
  let term =
    Term.(
      const run $ setup_logs $ quick $ seeds $ only $ jobs $ domains $ metrics_out_arg
      $ metrics_summary_arg)
  in
  Cmd.v (Cmd.info "experiments" ~doc:"Print the experiment tables (E1..E19).") term

(* ------------------------------------------------------------------ *)
(* hermes explore                                                      *)
(* ------------------------------------------------------------------ *)

let explore_cmd =
  let module Explore = Hermes_protocol.Explore in
  let module Coordinator_sm = Hermes_protocol.Coordinator_sm in
  let sites = Arg.(value & opt int 2 & info [ "sites" ] ~doc:"Number of sites (every transaction touches all of them).") in
  let txns = Arg.(value & opt int 2 & info [ "txns" ] ~doc:"Number of global transactions.") in
  let txn_shards =
    Arg.(
      value
      & opt int 0
      & info [ "txn-shards" ] ~docv:"N"
          ~doc:
            "Shards each transaction touches (default 0 = all). A proper subset (e.g. 2 of 3 \
             sites) leaves non-participant sites that can gain a moved shard — the scenarios \
             where the reconfiguration handover actually matters.")
  in
  let budget name ~default doc = Arg.(value & opt int default & info [ name ] ~docv:"N" ~doc) in
  let drops = budget "drops" ~default:0 "Budget of messages the network may lose." in
  let dups = budget "dups" ~default:0 "Budget of messages the network may duplicate." in
  let crashes = budget "crashes" ~default:0 "Budget of site crash+recover events." in
  let uaborts = budget "uaborts" ~default:1 "Budget of unilateral aborts of live local transactions." in
  let alive_fires = budget "alive-fires" ~default:1 "Budget of periodic alive-check firings." in
  let commit_retries = budget "commit-retries" ~default:2 "Budget of commit-certification retry firings." in
  let exec_timeouts = budget "exec-timeouts" ~default:0 "Budget of coordinator command-reply timeouts." in
  let retransmits = budget "retransmits" ~default:0 "Budget of decision/PREPARE retransmission firings." in
  let coord_crashes =
    budget "coord-crashes" ~default:0 "Budget of coordinator-site crash (+log recovery) events."
  in
  let inquiries = budget "inquiries" ~default:0 "Budget of decision-inquiry timer firings." in
  let replica_kills =
    budget "replica-kills" ~default:0
      "Budget of permanent leader/acceptor kills (replicated commit protocols: at F the space must \
       exhaust clean, at F+1 blocking reappears)."
  in
  let reconfigures =
    budget "reconfigures" ~default:0
      "Budget of shard-placement reconfigurations (each move installs a new epoch and hands the \
       moved shard's prepared state to the gainer)."
  in
  let no_handover =
    Arg.(
      value
      & flag
      & info [ "no-handover" ]
          ~doc:
            "Ablate the reconfiguration handover: a shard move installs the new epoch without \
             transferring the loser's prepared certification state. With a reconfigure budget \
             this violates I6 (expected exit 1).")
  in
  let no_termination =
    Arg.(
      value
      & flag
      & info [ "no-termination" ]
          ~doc:
            "Ablate the coordinator durability + in-doubt termination protocol: a crashed \
             coordinator stays dead instead of recovering from its log. With a coordinator-crash \
             budget this rediscovers the forever-blocking counterexample (expected exit 1).")
  in
  let max_states =
    Arg.(value & opt int 2_000_000 & info [ "max-states" ] ~docv:"N" ~doc:"Exploration cap (a hit is reported as truncation).")
  in
  let lying_sites =
    Arg.(
      value
      & opt (list int) []
      & info [ "lying-sites" ] ~docv:"SITES"
          ~doc:
            "Adversary: agents at these sites vote READY without preparing, deny having prepared, \
             and drop their local commit. Undefended this violates I2; with $(b,--certificates) \
             the space must exhaust clean.")
  in
  let equivocate =
    Arg.(
      value
      & flag
      & info [ "equivocate" ]
          ~doc:
            "Adversary: committing coordinators split COMMIT/bare-ROLLBACK across the \
             participants. Undefended this violates I4; defend with $(b,--certificates) and a \
             $(b,--suspicion) timeout plus inquiry/retransmit budgets.")
  in
  let sn_drift =
    Arg.(
      value
      & opt int 0
      & info [ "sn-drift" ] ~docv:"TICKS"
          ~doc:
            "Adversary: even-gid coordinators draw serial numbers $(docv) ticks in the past. On \
             the extension ablation this violates I3; defend with $(b,--drift-bound).")
  in
  let certificates =
    Arg.(
      value
      & flag
      & info [ "certificates" ]
          ~doc:
            "Countermeasure: certified votes and decisions — uncertified READY is rejected, bare \
             decisions at prepared participants are dropped as equivocation.")
  in
  let drift_bound =
    Arg.(
      value
      & opt (some int) None
      & info [ "drift-bound" ] ~docv:"TICKS"
          ~doc:"Countermeasure: refuse PREPAREs whose serial number is staler than $(docv) ticks.")
  in
  let suspicion =
    Arg.(
      value
      & opt int 0
      & info [ "suspicion" ] ~docv:"TICKS"
          ~doc:
            "Countermeasure: mutual-suspicion timeout — prepared participants escalate to the \
             termination path after $(docv) ticks without a decision.")
  in
  let json =
    Arg.(
      value
      & flag
      & info [ "json" ]
          ~doc:
            "Machine-readable output: exploration stats plus one record per reported violation \
             with the violated invariant id and its counterexample schedule.")
  in
  let quorum =
    Arg.(
      value
      & opt (enum [ ("dedup", Coordinator_sm.Dedup); ("counted", Coordinator_sm.Counted) ]) Coordinator_sm.Dedup
      & info [ "quorum" ]
          ~doc:
            "Vote counting: $(b,dedup) (per-site, correct) or $(b,counted) (raw counter — the \
             historical duplicate-READY fake-quorum bug, expected to produce violations).")
  in
  let run () certifier commit_proto paxos_f sites txns txn_shards drops dups crashes uaborts
      alive_fires commit_retries exec_timeouts retransmits coord_crashes inquiries replica_kills
      reconfigures no_handover no_termination max_states lying_sites equivocate sn_drift
      certificates drift_bound suspicion json quorum =
    let commit_proto = resolve_commit_proto commit_proto paxos_f in
    let certifier =
      with_adversary certifier ~lying_sites ~equivocate ~sn_drift ~certificates ~drift_bound
        ~suspicion
    in
    let scenario =
      {
        Explore.n_sites = sites;
        n_txns = txns;
        config = { certifier with Config.bind_data = false; commit_proto };
        quorum;
        budgets =
          {
            Explore.drops;
            dups;
            crashes;
            uaborts;
            alive_fires;
            commit_retries;
            exec_timeouts;
            retransmits;
            coord_crashes;
            inquiries;
            replica_kills;
            reconfigures;
          };
        termination = not no_termination;
        handover = not no_handover;
        txn_shards;
        max_states;
      }
    in
    let st = Explore.run scenario in
    if json then begin
      let module Json = Hermes_obs.Json in
      (* The invariant id is the "I<n>" prefix every violation message
         carries; the schedule is the counterexample, oldest step first. *)
      let violation_json (msg, trail) =
        let invariant =
          match String.index_opt msg ':' with Some i -> String.sub msg 0 i | None -> ""
        in
        Json.Obj
          [
            ("invariant", Json.String invariant);
            ("message", Json.String msg);
            ( "schedule",
              Json.List
                (List.map (fun a -> Json.String (Fmt.str "%a" Explore.pp_action a)) trail) );
          ]
      in
      Fmt.pr "%s@."
        (Json.to_string
           (Json.Obj
              [
                ("states", Json.Int st.Explore.states);
                ("transitions", Json.Int st.Explore.transitions);
                ("terminals", Json.Int st.Explore.terminals);
                ("violations", Json.Int st.Explore.n_violations);
                ("truncated", Json.Bool st.Explore.truncated);
                ("counterexamples", Json.List (List.map violation_json st.Explore.violations));
              ]))
    end
    else begin
      Fmt.pr "%a@." Explore.pp_stats st;
      List.iter (fun v -> Fmt.pr "@.%a@." Explore.pp_violation v) st.Explore.violations;
      if st.Explore.n_violations > List.length st.Explore.violations then
        Fmt.pr "@.(%d further violations not shown)@."
          (st.Explore.n_violations - List.length st.Explore.violations)
    end;
    if st.Explore.truncated then 2 else if st.Explore.n_violations > 0 then 1 else 0
  in
  let term =
    Term.(
      const run $ setup_logs $ certifier_arg $ commit_proto_arg $ paxos_f_arg $ sites $ txns
      $ txn_shards $ drops $ dups $ crashes $ uaborts $ alive_fires $ commit_retries
      $ exec_timeouts $ retransmits $ coord_crashes $ inquiries $ replica_kills $ reconfigures
      $ no_handover $ no_termination $ max_states $ lying_sites $ equivocate $ sn_drift
      $ certificates $ drift_bound $ suspicion $ json $ quorum)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Exhaustively model-check the pure protocol machines over every schedule of a small \
          scenario (message reorderings, budgeted losses, duplications, unilateral aborts and \
          crash points). Exit 0: space exhausted, no violations; 1: violations found; 2: truncated.")
    term

(* ------------------------------------------------------------------ *)
(* hermes fuzz                                                         *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let count = Arg.(value & opt int 50 & info [ "count"; "n" ] ~doc:"Random configurations to try.") in
  let run () count seed =
    let rng = Hermes_kernel.Rng.create ~seed in
    let failures = ref 0 in
    for i = 1 to count do
      (* The test-suite fuzzer's space and judgement — the verdict plus
         "nothing stuck" — reported instead of asserted. *)
      let setup = Experiment.random_setup rng in
      let r = Driver.run setup in
      let v = Correctness.check r.Driver.history in
      if r.Driver.stuck > 0 || not (Correctness.ok v) then begin
        incr failures;
        Fmt.pr
          "#%d FAILED: stuck=%d distortions=%d cycle=%b rigorousness violations=%d value mismatches=%d \
           torn=%d (driver seed %d)@."
          i r.Driver.stuck (List.length v.Correctness.distortions) (v.Correctness.cg_cycle <> None)
          (List.fold_left (fun acc (_, vs) -> acc + List.length vs) 0 v.Correctness.rigorous_violations)
          (List.length v.Correctness.value_mismatches) (List.length v.Correctness.torn) setup.Driver.seed
      end
      else
        Fmt.pr "#%d ok: %d commits, %d resubmissions, %d ops verified@." i
          (Stats.committed r.Driver.stats) r.Driver.totals.Dtm.resubmissions
          (History.length r.Driver.history)
    done;
    if !failures = 0 then begin
      Fmt.pr "@.all %d random configurations clean.@." count;
      0
    end
    else begin
      Fmt.pr "@.%d/%d configurations FAILED.@." !failures count;
      1
    end
  in
  let term = Term.(const run $ setup_logs $ count $ seed_arg) in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Run random configurations under the full certifier and verify each history.")
    term

let () =
  let doc = "2PC Agent certification for rigorous heterogeneous multidatabases (Veijalainen & Wolski, ICDE 1992)" in
  let info = Cmd.info "hermes" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info [ run_cmd; scenario_cmd; experiments_cmd; verify_cmd; explore_cmd; fuzz_cmd ]))
