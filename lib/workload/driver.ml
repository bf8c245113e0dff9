(* The workload driver: global transactions enter by the spec's arrival
   discipline — a closed loop of clients working off a quota (retrying
   aborted ones), or an open loop of Poisson arrivals queueing past the
   in-service cap — while local clients at every site run purely local
   transactions against their LTMs; when the global quota is done, local
   clients stop and the simulation drains. One [run] produces one
   measured data point. *)

open Hermes_kernel
module Engine = Hermes_sim.Engine
module Parallel = Hermes_sim.Parallel
module Ltm = Hermes_ltm.Ltm
module Ltm_config = Hermes_ltm.Ltm_config
module Failure = Hermes_ltm.Failure
module Network = Hermes_net.Network
module Config = Hermes_core.Config
module Program = Hermes_core.Program
module Coordinator = Hermes_core.Coordinator
module Dtm = Hermes_core.Dtm
module Shard_map = Hermes_placement.Shard_map
module Cgm = Hermes_baselines.Cgm
module History = Hermes_history.History
module Obs = Hermes_obs.Obs
module Registry = Hermes_obs.Registry

type protocol =
  | Two_pca of Config.t  (* the paper's DTM, or its ablations/naive/ticket variants *)
  | Cgm_baseline of Cgm.granularity

let protocol_name = function
  | Two_pca c ->
      if c = Config.full then "2CM"
      else if c = Config.naive then "naive"
      else if c = Config.ticket then "ticket"
      else "2CM-variant"
  | Cgm_baseline Cgm.Site_level -> "CGM-site"
  | Cgm_baseline Cgm.Table_level -> "CGM-table"

type setup = {
  spec : Spec.t;
  protocol : protocol;
  failure : Failure.config;
  net : Network.config;
  ltm : Ltm_config.t;
  clock_of_site : int -> Clock.t;
  seed : int;
  time_limit : int;  (* simulated-tick cap: unsound ablations can livelock *)
  site_override : (int -> Dtm.site_spec option) option;
      (* heterogeneity hook: a per-site spec replacing the uniform
         failure/ltm/clock fields where it returns [Some] *)
  crash_schedule : (int * int) list;
      (* (tick, site index) full site crashes *)
  reboot_delay : int;
      (* ticks a crashed site stays down before recovery; 0 = the paper's
         instantaneous reboot *)
  crash_coordinators : bool;
      (* scheduled crashes also take down the site's coordinators, which
         reboot from the coordinator log; agents run the in-doubt
         termination protocol (2PCA only — the CGM baseline ignores it) *)
  obs : Obs.t option;
      (* observability context threaded into every component; end-of-run
         counters are exported into its registry *)
  moves : int;
      (* online reconfigurations: this many shard moves are scheduled
         during the run (2PCA, one execution shard only); each installs a
         new placement epoch after handing the moved shard's prepared
         certification state over to the gaining site *)
  reconfigure_at : int;
      (* tick of the first scheduled move; move [m] fires at
         [m * reconfigure_at] *)
  leave_schedule : (int * int) list;
      (* (tick, site index): the site leaves the serving set — its shards
         redistribute over the survivors with a prepared-state handover
         ({!Dtm.leave}). 2PCA, one execution shard only *)
  join_schedule : (int * int) list;
      (* (tick, site index): the site (re)joins the serving set, owning
         nothing until a later move ({!Dtm.join}) *)
  domains : int;
      (* OCaml domains for the run. 1 (default) runs every site on one
         execution shard — the sequential engine; > 1 runs one shard per
         site in conservative windows over this many domains, which is
         deterministic and domain-count-invariant but a different
         schedule from the one-shard run *)
}

let default_setup =
  {
    spec = Spec.default;
    protocol = Two_pca Config.full;
    failure = Failure.disabled;
    net = Network.default_config;
    ltm = Ltm_config.default;
    clock_of_site = (fun _ -> Clock.perfect);
    seed = 1;
    time_limit = 120_000_000;
    site_override = None;
    crash_schedule = [];
    reboot_delay = 0;
    crash_coordinators = false;
    obs = None;
    moves = 0;
    reconfigure_at = 0;
    leave_schedule = [];
    join_schedule = [];
    domains = 1;
  }

type result = {
  stats : Stats.t;
  totals : Dtm.totals;
  cgm : Cgm.stats option;
  history : History.t;
  sim_ticks : int;
  events : int;
  throughput : float;  (* committed global txns per simulated second *)
  wall_s : float;  (* wall-clock seconds of the execution phase *)
  stuck : int;  (* global transactions unfinished at the time cap (livelock) *)
}

(* The driver's random streams for one execution shard. *)
type streams = {
  gen : Generator.t;
  think : Rng.t;
  moves : Rng.t option;  (* the coordinating shard 0's, when moves are scheduled *)
  arrivals : Rng.t option;  (* open loop only *)
}

(* One run over [k] execution shards ({!Dtm.create}): one shard is the
   sequential engine, one per site the windowed engine. The client code
   runs once per shard, shard [x] taking the [x]th share of the quota,
   the client population and the local budget, scheduling only on its own
   engine and counting into its own [Stats] — merged after quiescence. *)
let execute ~k ~domains setup =
  let spec = setup.spec in
  let n = spec.Spec.n_sites in
  let cgm = match setup.protocol with Cgm_baseline _ -> true | Two_pca _ -> false in
  let churn = setup.leave_schedule <> [] || setup.join_schedule <> [] in
  if cgm && (setup.moves > 0 || churn) then
    invalid_arg "Driver: placement changes require the 2PCA protocol";
  if k > 1 then begin
    let refuse why = invalid_arg ("Driver.run_windowed: " ^ why) in
    if cgm then refuse "the CGM baseline is single-domain only";
    if setup.moves > 0 then refuse "online reconfiguration runs on one execution shard only";
    if churn then refuse "site churn runs on one execution shard only"
  end;
  let rng = Rng.create ~seed:setup.seed in
  let engines = Array.init k (fun _ -> Engine.create ()) in
  let site_specs =
    Array.init n (fun i ->
        let uniform =
          { Dtm.ltm_config = setup.ltm; clock = setup.clock_of_site i; failure = setup.failure }
        in
        match setup.site_override with
        | Some f -> Option.value ~default:uniform (f i)
        | None -> uniform)
  in
  let dtm, submit, cgm_stats =
    match setup.protocol with
    | Two_pca certifier ->
        let dtm =
          Dtm.create ~engines ~rng ~net_config:setup.net ~certifier ?obs:setup.obs
            ~crash_coordinators:setup.crash_coordinators ~n_shards:(Spec.shards spec) ~site_specs
            ()
        in
        (dtm, (fun ?shards program ~on_done -> ignore (Dtm.submit dtm ?shards program ~on_done)), None)
    | Cgm_baseline granularity ->
        let cgm =
          Cgm.create ~engine:engines.(0) ~rng ~net_config:setup.net ~granularity ?obs:setup.obs
            ~site_specs ()
        in
        (Cgm.dtm cgm, (fun ?shards:_ program ~on_done -> Cgm.submit cgm program ~on_done),
         Some (Cgm.stats cgm))
  in
  (* Populate every site (plus CGM's locally-updateable partition). *)
  List.iter
    (fun site ->
      List.iter
        (fun table ->
          for key = 0 to spec.Spec.keys_per_site - 1 do
            Dtm.load dtm site ~table ~key ~value:Spec.initial_value
          done)
        (Generator.local_partition_table :: Spec.tables spec))
    (Dtm.site_ids dtm);
  (* Every stream is split before any event is scheduled, shard by
     shard; the shard suffix appears only when there are several. *)
  let label name x = if k = 1 then name else Fmt.str "%s-%d" name x in
  let streams =
    Array.init k (fun x ->
        let gen = Generator.create ~spec ~rng:(Rng.split rng ~label:(label "generator" x)) in
        let think = Rng.split rng ~label:(label "think" x) in
        let moves =
          if x = 0 && setup.moves > 0 then Some (Rng.split rng ~label:"reconfigure") else None
        in
        let arrivals =
          match spec.Spec.arrival with
          | Spec.Open _ -> Some (Rng.split rng ~label:(label "arrivals" x))
          | Spec.Closed _ -> None
        in
        { gen; think; moves; arrivals })
  in
  (* Scheduled full site crashes, on the crashed site's shard. With a
     non-zero reboot delay, sites will be marked down mid-run —
     coordinators must arm their loss-recovery retransmissions from the
     first transaction on, so declare the network lossy up front.
     Coordinator crashes imply the same even with instantaneous reboots:
     a recovered decision may need retransmitting. (The agents' inquiry
     timers are NOT lossiness-gated — they arm whenever coordinator
     crashes are enabled — so this flag is purely about the
     coordinators' retransmission machinery.) Crashes, moves and churn
     are all scheduled before any client starts. *)
  if (setup.reboot_delay > 0 || setup.crash_coordinators) && setup.crash_schedule <> [] then
    List.iter Network.assume_lossy (Dtm.networks dtm);
  let at_sites schedule f =
    List.iter
      (fun (at, i) ->
        if i >= 0 && i < n then
          Engine.schedule_unit engines.(i mod k) ~delay:at (fun () -> f (Site.of_int i)))
      schedule
  in
  at_sites setup.crash_schedule (Dtm.crash_site ~reboot_delay:setup.reboot_delay dtm);
  (* Online reconfiguration: [moves] shard moves at [m * reconfigure_at],
     targets drawn up front from a dedicated stream. Moving a shard onto
     its current owner is a deliberate possibility: it exercises the no-op
     path; so is a target that has left the serving set by the time the
     move fires ({!Dtm.reconfigure} ignores both). *)
  Option.iter
    (fun rrng ->
      let gap = max 1 setup.reconfigure_at in
      for m = 1 to setup.moves do
        let shard = Rng.int rrng ~bound:(Spec.shards spec) in
        let to_ = Site.of_int (Rng.int rrng ~bound:n) in
        Engine.schedule_unit engines.(0) ~delay:(m * gap) (fun () ->
            Dtm.reconfigure dtm ~shard ~to_)
      done)
    streams.(0).moves;
  (* Site churn: scheduled leaves hand the leaver's shards (and prepared
     certification state) to the survivors; scheduled joins re-admit a
     site to the serving set. Each installs a new placement epoch, so
     in-flight rounds re-resolve exactly as under a shard move. *)
  at_sites setup.leave_schedule (fun site -> Dtm.leave dtm ~site);
  at_sites setup.join_schedule (fun site -> Dtm.join dtm ~site);
  (* Per-attempt placement resolution: the generator's steps are in shard
     space; every submission (first try and each resubmission) routes
     them through the placement map current at that moment. A shard move
     between two attempts re-routes the retry — the paper's resubmission
     machinery doubling as the reconfiguration client. At the static map
     this is the identity. *)
  let resolve steps =
    let map = Dtm.placement dtm in
    Program.make (List.map (fun (shard, c) -> (Shard_map.owner map ~shard, c)) steps)
  in
  (* Integer partition of [total] over the shards: shard [x] gets the
     [x]th share, shares differ by at most one. *)
  let share total x = (total / k) + if x < total mod k then 1 else 0 in
  let shard_stats = Array.init k (fun _ -> Stats.create ()) in
  let local_seq = Array.make n 0 in
  let partitioned = cgm in
  (* Start shard [x]'s clients; returns its count of unfinished globals. *)
  let start_shard x =
    let engine = engines.(x) and stats = shard_stats.(x) and s = streams.(x) in
    let quota = share spec.Spec.n_global x in
    let remaining = ref quota in
    let in_flight = ref 0 in
    let queued = ref 0 in
    let locals_active = ref true in
    let think next =
      Engine.schedule_unit engine ~delay:(Rng.exponential s.think ~mean:(Spec.think_time spec)) next
    in
    (* The program draw is the one step that depends on [k]: one shard
       draws shard-space steps, resolved through the placement map on
       every attempt; per-site shards draw programs rooted at their own
       site, so each coordinator starts on its own shard. *)
    let draw () =
      if k = 1 then `Steps (Generator.shard_steps s.gen)
      else `Rooted (Generator.global_program_rooted s.gen ~site:(Site.of_int x))
    in
    let submit_drawn drawn ~on_done =
      match drawn with
      | `Steps steps ->
          submit ~shards:(List.sort_uniq compare (List.map fst steps)) (resolve steps) ~on_done
      | `Rooted program -> submit program ~on_done
    in
    (* One global transaction, from [started], until it commits or runs
       out of retries; then [finish]. *)
    let run_global ~started drawn ~finish =
      let rec attempt tries =
        Stats.note_attempt stats;
        submit_drawn drawn ~on_done:(function
          | Coordinator.Committed ->
              Stats.note_committed stats;
              Stats.record_latency stats ~started ~finished:(Engine.now engine);
              finish ()
          | Coordinator.Aborted (Coordinator.Refused (_, Wire.Wrong_epoch)) ->
              (* reconfiguration noise, not contention: re-resolve
                 through the new map without consuming the budget *)
              Stats.note_retry stats;
              think (fun () -> attempt tries)
          | Coordinator.Aborted _ when tries < spec.Spec.max_retries ->
              Stats.note_retry stats;
              think (fun () -> attempt (tries + 1))
          | Coordinator.Aborted _ ->
              Stats.note_final_abort stats;
              finish ())
      in
      attempt 0
    in
    (match spec.Spec.arrival with
    | Spec.Closed { mpl; think_time_mean = _ } ->
        (* Closed loop: a fixed population works off the quota. *)
        let rec global_client () =
          if !remaining > 0 then begin
            decr remaining;
            incr in_flight;
            run_global ~started:(Engine.now engine) (draw ()) ~finish:client_done
          end
        and client_done () =
          decr in_flight;
          if !remaining = 0 && !in_flight = 0 then locals_active := false;
          think global_client
        in
        for _ = 1 to min (max 1 (share mpl x)) quota do
          global_client ()
        done
    | Spec.Open { rate; max_in_flight } ->
        (* Open loop: Poisson arrivals at the shard's share of [rate] txns
           per simulated second (ticks are microseconds) — shards run
           independent arrival processes, whose superposition is the
           global one. Arrivals beyond the in-service cap queue; latency
           runs from arrival, so queueing delay under saturation lands in
           the percentiles. *)
        let arr_rng = Option.get s.arrivals in
        let rate_here = rate /. float_of_int k in
        let mean_gap = int_of_float (Float.max 1.0 (1_000_000.0 /. Float.max 1e-9 rate_here)) in
        let cap = max 1 (share max_in_flight x) in
        let completed = ref 0 in
        let queue = Queue.create () in
        let rec maybe_start () =
          if !in_flight < cap && not (Queue.is_empty queue) then begin
            let arrived, drawn = Queue.pop queue in
            decr queued;
            incr in_flight;
            run_global ~started:arrived drawn ~finish:arrival_done;
            maybe_start ()
          end
        and arrival_done () =
          decr in_flight;
          incr completed;
          if !completed = quota then locals_active := false;
          maybe_start ()
        in
        let rec arrival_loop () =
          if !remaining > 0 then
            Engine.schedule_unit engine ~delay:(Rng.exponential arr_rng ~mean:mean_gap) (fun () ->
                decr remaining;
                incr queued;
                Queue.push (Engine.now engine, draw ()) queue;
                maybe_start ();
                arrival_loop ())
        in
        if quota > 0 then arrival_loop () else locals_active := false);
    (* Local clients: [local_mpl_per_site] loops per site of the shard,
       stopping when the shard's global quota is done or its local budget
       is spent. *)
    let local_cap = share spec.Spec.local_txn_cap x in
    let local_count = ref 0 in
    let local_client site =
      let ltm = Dtm.ltm dtm site in
      let i = Site.to_int site in
      let rec loop () =
        if !locals_active && !local_count < local_cap then
          think (fun () ->
              if !locals_active && !local_count < local_cap then begin
                incr local_count;
                local_seq.(i) <- local_seq.(i) + 1;
                let owner =
                  Txn.Incarnation.make ~txn:(Txn.local ~site ~n:local_seq.(i)) ~site ~inc:0
                in
                let txn = Ltm.begin_txn ltm ~owner in
                let rec step = function
                  | [] ->
                      Ltm.commit ltm txn ~on_done:(fun r ->
                          (match r with
                          | Ltm.Committed -> Stats.note_local_committed stats
                          | Ltm.Commit_refused _ -> Stats.note_local_aborted stats);
                          loop ())
                  | cmd :: rest ->
                      Ltm.exec ltm txn cmd ~on_done:(function
                        | Ltm.Done _ -> step rest
                        | Ltm.Failed _ ->
                            Stats.note_local_aborted stats;
                            loop ())
                in
                step (Generator.local_commands ~partitioned s.gen)
              end)
      in
      loop ()
    in
    List.iter
      (fun site ->
        if Site.to_int site mod k = x then
          for _ = 1 to spec.Spec.local_mpl_per_site do
            local_client site
          done)
      (Dtm.site_ids dtm);
    fun () -> !in_flight + !queued + !remaining
  in
  let unfinished = List.init k start_shard in
  let wall_start = Unix.gettimeofday () in
  ignore
    (Parallel.run ~domains ~lookahead:setup.net.Network.base_delay
       ~until:(Time.of_int setup.time_limit) (Dtm.exec_shards dtm));
  let wall_s = Unix.gettimeofday () -. wall_start in
  Array.iter Engine.halt engines;
  let stats = Array.fold_left Stats.merge (Stats.create ()) shard_stats in
  let engine_stats = Array.map Engine.stats engines in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 engine_stats in
  let sim_ticks =
    Array.fold_left (fun acc e -> max acc (Time.to_int (Engine.last_event_at e))) 0 engines
  in
  let events = sum (fun s -> s.Engine.events) in
  (* End-of-run export: the component counters (agents, LTMs, DLU, net),
     the client-side statistics and the engine totals all land in the
     run's registry, joining the histograms recorded live. *)
  (match setup.obs with
  | Some o ->
      let reg = Obs.metrics o in
      Dtm.merge_obs dtm;
      Dtm.export_metrics dtm reg;
      Stats.export stats reg;
      Registry.Counter.add (Registry.counter reg "sim.events") events;
      Registry.Counter.add (Registry.counter reg "sim.cancelled") (sum (fun s -> s.Engine.cancelled));
      Registry.Gauge.set (Registry.gauge reg "sim.max_pending")
        (Array.fold_left (fun acc s -> max acc s.Engine.max_pending) 0 engine_stats)
  | None -> ());
  {
    stats;
    totals = Dtm.totals dtm;
    cgm = cgm_stats;
    history = Dtm.history dtm;
    sim_ticks;
    events;
    throughput =
      (if sim_ticks = 0 then 0.0
       else float_of_int (Stats.committed stats) *. 1_000_000.0 /. float_of_int sim_ticks);
    wall_s;
    stuck = List.fold_left (fun acc f -> acc + f ()) 0 unfinished;
  }

let run_windowed ?(domains = 0) setup =
  execute ~k:setup.spec.Spec.n_sites ~domains:(if domains > 0 then domains else setup.domains) setup

let run setup = if setup.domains > 1 then run_windowed setup else execute ~k:1 ~domains:1 setup
