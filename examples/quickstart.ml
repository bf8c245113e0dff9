(* Quickstart: a two-site heterogeneous multidatabase, one global
   transfer, one injected unilateral abort, one resubmission — and an
   independently verified history.

   Run with:  dune exec examples/quickstart.exe *)

open Hermes_kernel
module Engine = Hermes_sim.Engine
module Failure = Hermes_ltm.Failure
module Config = Hermes_core.Config
module Program = Hermes_core.Program
module Coordinator = Hermes_core.Coordinator
module Dtm = Hermes_core.Dtm
module History = Hermes_history.History
module Report = Hermes_history.Report

let () =
  (* 1. A simulation world: engine and RNG. *)
  let engine = Engine.create () in
  let rng = Rng.create ~seed:2026 in

  (* 2. Two autonomous sites, each an LDBS with a rigorous (S2PL) LTM and
     a 2PC Agent running the full Certifier. Prepared subtransactions
     suffer unilateral aborts with probability 0.5 — an INGRES log
     overflow in miniature. *)
  let dtm =
    Dtm.create ~engines:[| engine |] ~rng ~net_config:Hermes_net.Network.default_config
      ~certifier:Config.full
      ~site_specs:
        (Array.make 2 { Dtm.default_site_spec with Dtm.failure = Failure.prepared_rate 0.5 })
      ()
  in
  let a = Site.of_int 0 and b = Site.of_int 1 in

  (* 3. Initial balances. *)
  Dtm.load dtm a ~table:"accounts" ~key:1 ~value:1_000;
  Dtm.load dtm b ~table:"accounts" ~key:1 ~value:500;

  (* 4. A global transfer: debit at site a, credit at site b. *)
  let transfer =
    Program.make
      [
        (a, Command.Update { table = "accounts"; key = 1; delta = -100 });
        (b, Command.Update { table = "accounts"; key = 1; delta = 100 });
      ]
  in
  let outcome = ref None in
  ignore (Dtm.submit dtm transfer ~on_done:(fun o -> outcome := Some o));

  (* 5. Run the discrete-event simulation to completion. *)
  Engine.run engine;

  (* 6. Results. *)
  (match !outcome with
  | Some o -> Fmt.pr "transfer: %a@." Coordinator.pp_outcome o
  | None -> Fmt.pr "transfer never finished?!@.");
  let balance site =
    Hermes_store.Row.value
      (Option.get (Hermes_store.Database.read (Dtm.database dtm site) ~table:"accounts" ~key:1))
  in
  Fmt.pr "balances: a=%d b=%d (total %d)@." (balance a) (balance b) (balance a + balance b);
  let totals = Dtm.totals dtm in
  Fmt.pr "unilateral aborts: %d, resubmissions: %d@." totals.Dtm.unilateral_aborts totals.Dtm.resubmissions;

  (* 7. The recorded history, in the paper's notation, and its formal
     verification by the independent theory library. *)
  let h = Dtm.history dtm in
  Fmt.pr "@.history:@.  %a@." History.pp_with_from h;
  Fmt.pr "@.%a@." Report.pp (Report.analyze h)
