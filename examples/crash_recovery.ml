(* Crash recovery: why the Appendix force-writes the prepare and commit
   records. A transfer reaches the prepared state at both banks; site a
   then crashes outright — every live transaction collectively aborted,
   all volatile agent state (subtransaction table, alive intervals,
   timers) gone, only the Agent log left. Recovery rebuilds the in-doubt
   subtransaction by resubmission, the coordinator retransmits the
   unacknowledged COMMIT, and the transfer still commits exactly once.

   Run with:  dune exec examples/crash_recovery.exe
   (add HERMES_LOG=debug for the full protocol transcript) *)

open Hermes_kernel
module Engine = Hermes_sim.Engine
module Agent = Hermes_core.Agent
module Agent_log = Hermes_protocol.Agent_log
module Config = Hermes_core.Config
module Program = Hermes_core.Program
module Coordinator = Hermes_core.Coordinator
module Dtm = Hermes_core.Dtm
module History = Hermes_history.History
module Report = Hermes_history.Report

let () =
  (match Sys.getenv_opt "HERMES_LOG" with
  | Some "debug" ->
      Logs.set_reporter (Logs_fmt.reporter ());
      Logs.set_level (Some Logs.Debug)
  | _ -> ());
  let engine = Engine.create () in
  let rng = Rng.create ~seed:1992 in
  let dtm =
    Dtm.create ~engines:[| engine |] ~rng
      ~net_config:{ Hermes_net.Network.default_config with base_delay = 500; jitter = 0 }
      ~certifier:Config.full
      ~site_specs:(Array.make 2 Dtm.default_site_spec)
      ()
  in
  let a = Site.of_int 0 and b = Site.of_int 1 in
  Dtm.load dtm a ~table:"accounts" ~key:1 ~value:1_000;
  Dtm.load dtm b ~table:"accounts" ~key:1 ~value:500;

  let outcome = ref None in
  ignore
    (Dtm.submit dtm
       (Program.make
          [
            (a, Command.Update { table = "accounts"; key = 1; delta = -250 });
            (b, Command.Update { table = "accounts"; key = 1; delta = 250 });
          ])
       ~on_done:(fun o -> outcome := Some o));

  (* Crash site a the moment its subtransaction is prepared (READY sent,
     prepare record forced) — before the COMMIT can arrive. *)
  let crashed = ref false in
  let rec watch () =
    if not !crashed then
      if Agent.n_prepared (Dtm.agent dtm a) > 0 then begin
        crashed := true;
        Fmt.pr ">> site a crashes (its READY is already on the wire)...@.";
        Dtm.crash_site dtm a;
        Fmt.pr ">> ...and reboots; recovery resubmits from the Agent log.@."
      end
      else Engine.schedule_unit engine ~delay:100 watch
  in
  Engine.schedule_unit engine ~delay:100 watch;

  Engine.run engine;

  (match !outcome with
  | Some o -> Fmt.pr "@.transfer outcome: %a@." Coordinator.pp_outcome o
  | None -> Fmt.pr "@.transfer never finished?!@.");
  let balance site =
    Hermes_store.Row.value
      (Option.get (Hermes_store.Database.read (Dtm.database dtm site) ~table:"accounts" ~key:1))
  in
  Fmt.pr "balances: a=%d b=%d (total %d, expected 1500)@." (balance a) (balance b)
    (balance a + balance b);
  let ags = Agent.stats (Dtm.agent dtm a) in
  Fmt.pr "site a: %d crash, %d in-doubt subtransaction(s) recovered, %d resubmissions@."
    ags.Agent.crashes ags.Agent.recovered ags.Agent.resubmissions;
  Fmt.pr "agent log at a: %d entries, %d force-writes@."
    (Agent_log.n_entries (Agent.agent_log (Dtm.agent dtm a)))
    (Agent_log.force_writes (Agent.agent_log (Dtm.agent dtm a)));
  Fmt.pr "@.%a@." Report.pp (Report.analyze (Dtm.history dtm));
  if balance a + balance b <> 1500 then exit 1
